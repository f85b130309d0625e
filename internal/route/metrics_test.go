// The router's /metrics page is pinned byte for byte by two golden files, so
// series names, label order and number formatting cannot drift: CI and the
// router smoke read the series by name. Regenerate them only for a
// deliberate change of the exposition. Name the package first: go test hands
// an unknown flag such as -update-golden, and every argument after it, to
// the test binary.
//
//	go test ./internal/route -run '^TestRouterMetricsGolden$' -update-golden
package route

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/metrics*.golden from the current renderer")

// checkGolden compares page with testdata/name, or rewrites the file under
// -update-golden.
func checkGolden(t *testing.T, name string, page []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, page, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page, want) {
		t.Errorf("%s differs from the rendered page:\n--- got ---\n%s\n--- want ---\n%s", path, page, want)
	}
}

// TestRouterMetricsGolden renders a registry with every family populated —
// three backends, one ejected by a failing probe, a transport error, retries
// and no-backend refusals — and a bare one, and compares both pages with
// their golden files.
func TestRouterMetricsGolden(t *testing.T) {
	errDown := errors.New("down")
	checker, err := NewChecker([]Backend{
		{ID: "10.0.0.1:8080", URL: "http://10.0.0.1:8080"},
		{ID: "10.0.0.2:8080", URL: "http://10.0.0.2:8080"},
		{ID: "10.0.0.3:8080", URL: "http://10.0.0.3:8080"},
	}, HealthConfig{
		Interval:   time.Hour,
		EjectAfter: 1,
		Probe: func(_ context.Context, b Backend) error {
			if b.ID == "10.0.0.3:8080" {
				return errDown
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer checker.Stop()
	checker.probeRound()

	m := newRouterMetrics(checker)
	m.observe("10.0.0.2:8080", 200, 0.004, "hit", "graph,table")
	m.observe("10.0.0.2:8080", 200, 0.02, "miss", "graph")
	m.observe("10.0.0.2:8080", 504, 31, "", "")
	m.observe("10.0.0.1:8080", 200, 0.000015, "miss", "table")
	m.observe("10.0.0.1:8080", 429, 0.0009, "", "")
	m.observe("10.0.0.3:8080", -1, 0, "", "")
	m.observe("10.0.0.3:8080", 200, 1234612.25, "miss", "")
	m.retries.Add(1)
	m.noBackend.Add(2)

	var a, b bytes.Buffer
	n, err := m.WriteTo(&a)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(a.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, a.Len())
	}
	if _, err := m.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two scrapes of the same state differ")
	}
	checkGolden(t, "metrics.golden", a.Bytes())

	var empty bytes.Buffer
	if _, err := newRouterMetrics(nil).WriteTo(&empty); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics_empty.golden", empty.Bytes())
}
