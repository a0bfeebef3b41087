// Package zipline is a fixture stub of the real module root: just
// enough surface for the streamclose and emitbuf analyzers to resolve
// the types and functions they match on.
package zipline

// Writer mimics the stream writer: Close and Flush return errors that
// callers must check.
type Writer struct{}

func (*Writer) Close() error                { return nil }
func (*Writer) Flush() error                { return nil }
func (*Writer) Write(p []byte) (int, error) { return len(p), nil }

// Reader mimics the stream reader.
type Reader struct{}

func (*Reader) Close() error { return nil }

// NewWriter returns a stub writer.
func NewWriter() *Writer { return &Writer{} }

// NewReader returns a stub reader.
func NewReader() *Reader { return &Reader{} }

// ProcessAppend mimics the dataplane append API: out is the
// caller-owned destination, returned extended.
func ProcessAppend(out []byte, b byte) []byte { return append(out, b) }

// AppendFrame mimics the packet append APIs.
func AppendFrame(dst []byte, b byte) []byte { return append(dst, b) }

// AppendCount has no slice destination; emitbuf must ignore it.
func AppendCount(n int) int { return n + 1 }
