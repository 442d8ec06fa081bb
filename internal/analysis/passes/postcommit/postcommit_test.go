package postcommit_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/passes/postcommit"
)

func TestGolden(t *testing.T) {
	analysistest.Run(t, "testdata", postcommit.Analyzer,
		"repro/internal/readpath", "repro/internal/core", "repro/internal/integrate",
		"repro/internal/xmldb")
}
