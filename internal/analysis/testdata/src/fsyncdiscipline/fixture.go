// Package fsyncdiscipline is the analyzer fixture: discarded
// (*os.File).Close/Sync errors on durability paths.
package fsyncdiscipline

import (
	"errors"
	"os"
)

func discards(f *os.File) {
	f.Sync()        // want `error from \(\*os\.File\)\.Sync discarded \(return value dropped\)`
	f.Close()       // want `error from \(\*os\.File\)\.Close discarded \(return value dropped\)`
	_ = f.Sync()    // want `error from \(\*os\.File\)\.Sync assigned to _`
	_ = f.Close()   // want `error from \(\*os\.File\)\.Close assigned to _`
	defer f.Close() // want `error from \(\*os\.File\)\.Close discarded \(deferred result dropped\)`
	go f.Sync()     // want `error from \(\*os\.File\)\.Sync discarded \(goroutine result dropped\)`
}

func handles(f *os.File) error {
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return nil
}

// joined shows the error-path idiom the cache uses: the flush errors
// ride out joined onto the primary failure.
func joined(f *os.File, primary error) error {
	return errors.Join(primary, f.Sync(), f.Close())
}

// closer is not an *os.File; its Close stays unpoliced — the rule
// targets the one type whose Close/Sync report kernel write-back
// failures, not every io.Closer.
type closer struct{}

func (closer) Close() error { return nil }
func (closer) Sync() error  { return nil }

func notOSFile(c closer) {
	c.Close()
	c.Sync()
	defer c.Close()
}

// allowed shows the escape hatch for a file that was only ever read.
func allowed(f *os.File) {
	defer f.Close() //viplint:allow fsyncdiscipline -- fixture: read-only handle, no write-back to lose
}
