// Package durable is the shared append log: its files are written
// through fsynced appends, and os.WriteFile is banned.
package durable

import "os"

func appendSynced(f *os.File, rec []byte) error {
	if _, err := f.Write(rec); err != nil {
		return err
	}
	return f.Sync()
}

func rewrite(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644) // want `os.WriteFile in durable package repro/internal/durable`
}
