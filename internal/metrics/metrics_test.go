package metrics

import (
	"bytes"
	"errors"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0.0005) // first bucket (le=0.001)
	h.Observe(100)    // beyond the last bound: +Inf only
	if h.counts[0] != 1 {
		t.Fatalf("first bucket = %d, want 1", h.counts[0])
	}
	for i := 1; i < len(h.counts); i++ {
		if h.counts[i] != 0 {
			t.Fatalf("bucket %d = %d, want 0", i, h.counts[i])
		}
	}
	if h.total != 2 || h.sum != 100.0005 {
		t.Fatalf("total/sum = %d/%g", h.total, h.sum)
	}
}

// failAfter accepts n writes, then fails every later one.
type failAfter struct {
	n   int
	buf bytes.Buffer
}

var errFull = errors.New("full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n == 0 {
		return 0, errFull
	}
	f.n--
	return f.buf.Write(p)
}

// TestWriterKeepsFirstError: after a failed write the Writer writes nothing
// more and reports the bytes written before it with the first error.
func TestWriterKeepsFirstError(t *testing.T) {
	out := &failAfter{n: 1}
	w := NewWriter(out)
	w.Header("x_total", "counter", "X.")
	w.Sample("x_total", 1)
	w.Sample("x_total", 2)
	n, err := w.Result()
	if !errors.Is(err, errFull) {
		t.Fatalf("err = %v, want %v", err, errFull)
	}
	if want := "# HELP x_total X.\n# TYPE x_total counter\n"; out.buf.String() != want || n != int64(len(want)) {
		t.Fatalf("wrote %q (n=%d), want %q", out.buf.String(), n, want)
	}
}
