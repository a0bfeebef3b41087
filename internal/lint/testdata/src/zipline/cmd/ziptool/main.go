// Fixture for the streamclose analyzer: a command using the stream
// types every way the analyzer distinguishes.
package main

import "zipline"

type otherCloser struct{}

func (otherCloser) Close() error { return nil }

func discarded() {
	w := zipline.NewWriter()
	w.Close()       // want `error from \(\*zipline\.Writer\)\.Close is discarded`
	defer w.Close() // want `deferred \(\*zipline\.Writer\)\.Close discards its error`

	r := zipline.NewReader()
	r.Close() // want `error from \(\*zipline\.Reader\)\.Close is discarded`

	w.Flush() // want `error from \(\*zipline\.Writer\)\.Flush is discarded`

	_ = w.Close() // want `error from \(\*zipline\.Writer\)\.Close assigned to blank`
}

func checked() error {
	w := zipline.NewWriter()
	if err := w.Close(); err != nil { // checked: not flagged
		return err
	}
	err := w.Flush() // named variable: not flagged
	return err
}

func unrelated() {
	var c otherCloser
	c.Close() // not a zipline stream type: not flagged
	defer c.Close()
}

func allowed() {
	w := zipline.NewWriter()
	//ziplint:allow streamclose fixture demonstrates the escape hatch
	w.Close()
}

func main() {
	discarded()
	_ = checked()
	unrelated()
	allowed()
}
