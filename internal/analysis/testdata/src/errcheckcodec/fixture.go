// Package errcheckcodec is the analyzer fixture: discarded errors from
// the module's codec, validation and report-writing surfaces.
package errcheckcodec

import (
	"io"

	"github.com/vipsim/vip/internal/core"
)

// report is a fixture-local accounting artifact; its Write/Validate
// methods are policed exactly like the module's.
type report struct{}

func (report) WriteJSON(w io.Writer) error { return nil }
func (report) Validate() error             { return nil }
func (report) String() string              { return "" } // not policed

// DecodeFrame is a fixture-local decoder, policed like the module's.
func DecodeFrame(b []byte) (int, error) { return len(b), nil }

func discards(w io.Writer, b []byte, cr *core.Report) {
	var rep report
	rep.WriteJSON(w)       // want `error from WriteJSON discarded \(return value dropped\)`
	_ = rep.Validate()     // want `error from Validate assigned to _`
	cr.WriteJSON(w)        // want `error from WriteJSON discarded \(return value dropped\)`
	n, _ := DecodeFrame(b) // want `error from DecodeFrame assigned to _`
	_ = n
	defer rep.WriteJSON(w) // want `error from WriteJSON discarded \(deferred result dropped\)`
}

func handles(w io.Writer, b []byte, cr *core.Report) error {
	var rep report
	if err := rep.WriteJSON(w); err != nil {
		return err
	}
	if err := rep.Validate(); err != nil {
		return err
	}
	if err := cr.WriteJSON(w); err != nil {
		return err
	}
	n, err := DecodeFrame(b)
	if err != nil {
		return err
	}
	_ = n
	_ = rep.String() // String is not a codec surface
	return nil
}

// stdlib Write* stays unpoliced: the rule targets the module's codec
// and report surfaces, not every io.Writer in existence.
func stdlibWriter(w io.Writer, b []byte) {
	w.Write(b)
}

// allowed shows the escape hatch for a provably infallible sink.
func allowed(w io.Writer) {
	var rep report
	_ = rep.WriteJSON(w) //viplint:allow errcheckcodec -- fixture: sink cannot fail
}
