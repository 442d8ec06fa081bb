package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunExitCodes pins the command's whole contract: 2 when the
// patterns match no package (this used to panic), 0 on a clean package,
// 1 with one line per finding on a dirty one.
func TestRunExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list -export")
	}
	dirty := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dirty, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module scratch\n\ngo 1.24\n")
	write("main.go", `package main

import "os"

func main() {
	if err := os.Rename("state.tmp", "state"); err != nil {
		panic(err)
	}
}
`)

	for _, tc := range []struct {
		name, dir, pattern string
		want               int
		stdout, stderr     string // substrings; "" means the stream stays empty
	}{
		{"empty match", ".", "../../docs/...", 2, "", "no packages matched"},
		{"flag", ".", "-json", 2, "", "usage: neogeolint [packages]"},
		{"own package", ".", ".", 0, "", ""},
		{"seeded violation", dirty, "./...", 1, "main.go:6:12: os.Rename", "1 finding(s)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.dir, []string{tc.pattern}, &stdout, &stderr); got != tc.want {
				t.Errorf("exit %d, want %d", got, tc.want)
			}
			for _, s := range []struct{ name, got, want string }{
				{"stdout", stdout.String(), tc.stdout},
				{"stderr", stderr.String(), tc.stderr},
			} {
				if !strings.Contains(s.got, s.want) || (s.want == "") != (s.got == "") {
					t.Errorf("%s = %q, want %q", s.name, s.got, s.want)
				}
			}
			if tc.want == 1 && !strings.HasSuffix(stdout.String(), "(atomicwrite)\n") {
				t.Errorf("stdout = %q, want one atomicwrite line", &stdout)
			}
		})
	}
}
