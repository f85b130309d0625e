// Package metrics writes the Prometheus text exposition format (version
// 0.0.4) for emts-serve and emts-router: one latency bucket list, one
// fixed-bucket histogram and one line writer. Callers keep their own
// instruments and choose the order of families and label values; writing
// label values in sorted order makes two scrapes of one state
// byte-identical. Standard library only.
package metrics

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Buckets are the upper bounds (seconds) of every latency histogram of the
// serving tier. The spread covers sub-millisecond heuristic runs (cpa on a
// tiny graph) up to multi-second EMTS10 optimizations of large PTGs, and one
// list for both tiers makes router-side and backend-side latency panels line
// up bucket for bucket.
var Buckets = [...]float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Histogram is a fixed-bucket histogram over Buckets: a count per bucket
// (cumulated only when written), a sum and a total. The zero value is
// empty. It is not safe for concurrent use; its owner guards it.
type Histogram struct {
	counts [len(Buckets)]uint64
	sum    float64
	total  uint64
}

// Observe records one value; values above the last bound land only in the
// +Inf bucket.
func (h *Histogram) Observe(v float64) {
	for i, ub := range Buckets {
		if v <= ub {
			h.counts[i]++
			break
		}
	}
	h.sum += v
	h.total++
}

// Writer writes exposition lines to an io.Writer. It counts the bytes
// written and keeps the first error, after which it writes nothing, so a
// renderer writes every line unchecked and reports once through Result.
type Writer struct {
	w   io.Writer
	n   int64
	err error
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

func (w *Writer) printf(format string, args ...any) {
	if w.err != nil {
		return
	}
	n, err := fmt.Fprintf(w.w, format, args...)
	w.n += int64(n)
	w.err = err
}

// Header writes the HELP and TYPE lines of the family name.
func (w *Writer) Header(name, typ, help string) {
	w.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one integer sample. labels alternate label names and
// values: Sample("emts_requests_total", 2, "code", "200").
func (w *Writer) Sample(name string, v int64, labels ...string) {
	w.printf("%s%s %d\n", name, labelSet(labels), v)
}

// Histogram writes the _bucket, _sum and _count series of h under the
// family name, each labelled by labels (as in Sample) ahead of le.
func (w *Writer) Histogram(name string, h *Histogram, labels ...string) {
	cum := uint64(0)
	for i, ub := range Buckets {
		cum += h.counts[i]
		w.printf("%s_bucket%s %d\n", name, labelSet(labels, "le", strconv.FormatFloat(ub, 'g', -1, 64)), cum)
	}
	w.printf("%s_bucket%s %d\n", name, labelSet(labels, "le", "+Inf"), h.total)
	w.printf("%s_sum%s %g\n", name, labelSet(labels), h.sum)
	w.printf("%s_count%s %d\n", name, labelSet(labels), h.total)
}

// Result returns the bytes written and the first write error, in the shape
// io.WriterTo returns.
func (w *Writer) Result() (int64, error) { return w.n, w.err }

// labelSet renders the name/value pairs of labels and then of more as
// {name1="value1",name2="value2"}, or "" when there are none.
func labelSet(labels []string, more ...string) string {
	// The capped slice makes append copy instead of writing into the
	// caller's array.
	pairs := append(labels[:len(labels):len(labels)], more...)
	if len(pairs) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", pairs[i], pairs[i+1])
	}
	b.WriteByte('}')
	return b.String()
}
