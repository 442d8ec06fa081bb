package atomicwrite_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/passes/atomicwrite"
)

func Test(t *testing.T) {
	analysistest.Run(t, "testdata", atomicwrite.Analyzer,
		"repro/internal/persist",
		"repro/internal/durable",
		"scratch",
	)
}
