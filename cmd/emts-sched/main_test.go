package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"emts"
	"emts/internal/schedule"
)

// writePTG writes a small FFT PTG to a temp file and returns its path.
func writePTG(t *testing.T) string {
	t.Helper()
	g, err := emts.GenerateFFT(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := g.Write(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestScheduleWithEMTSAndExport(t *testing.T) {
	ptg := writePTG(t)
	out := filepath.Join(t.TempDir(), "sched.json")
	if err := run(ptg, "grelon", "synthetic", "emts5", 1, outputs{gantt: "none", width: 80, out: out}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := schedule.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan() <= 0 || len(s.Entries) != 15 {
		t.Fatalf("schedule: makespan %g, %d entries", s.Makespan(), len(s.Entries))
	}
}

func TestScheduleASCIIAndSVGModes(t *testing.T) {
	ptg := writePTG(t)
	for _, mode := range []string{"ascii", "svg"} {
		if err := run(ptg, "chti", "amdahl", "mcpa", 1, outputs{gantt: mode, width: 60}); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
	}
}

func TestPlatformFile(t *testing.T) {
	ptg := writePTG(t)
	plat := filepath.Join(t.TempDir(), "cluster.txt")
	if err := os.WriteFile(plat, []byte("# test\nmini 8 2.0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(ptg, plat, "amdahl", "cpa", 1, outputs{gantt: "none", width: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestErrors(t *testing.T) {
	ptg := writePTG(t)
	if err := run("", "chti", "amdahl", "cpa", 1, outputs{gantt: "none", width: 60}); err == nil {
		t.Fatal("missing -ptg accepted")
	}
	if err := run("/does/not/exist.json", "chti", "amdahl", "cpa", 1, outputs{gantt: "none", width: 60}); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := run(ptg, "atlantis", "amdahl", "cpa", 1, outputs{gantt: "none", width: 60}); err == nil {
		t.Fatal("unknown platform accepted")
	}
	if err := run(ptg, "chti", "amdahl", "cpa", 1, outputs{gantt: "holographic", width: 60}); err == nil {
		t.Fatal("unknown gantt mode accepted")
	}
	if err := run(ptg, "chti", "amdahl", "warp", 1, outputs{gantt: "none", width: 60}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestScheduleFromDOTFile(t *testing.T) {
	src := `digraph w {
  a [size="4e9", alpha="0.1"]
  b [size="2e9", alpha="0.1"]
  a -> b
}`
	path := filepath.Join(t.TempDir(), "g.dot")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(path, "chti", "amdahl", "mcpa", 1, outputs{gantt: "none", width: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestProfileCSVAndTrace(t *testing.T) {
	ptg := writePTG(t)
	dir := t.TempDir()
	csv := filepath.Join(dir, "sched.csv")
	trace := filepath.Join(dir, "trace.csv")
	o := outputs{gantt: "none", width: 60, profile: true, csv: csv, trace: trace}
	if err := run(ptg, "chti", "synthetic", "emts5", 1, o); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{csv, trace} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Fatalf("%s empty", path)
		}
	}
	// Trace has header + 5 generations.
	data, _ := os.ReadFile(trace)
	if got := strings.Count(string(data), "\n"); got != 6 {
		t.Fatalf("trace has %d lines, want 6", got)
	}
}

func TestTraceRequiresEMTS(t *testing.T) {
	ptg := writePTG(t)
	o := outputs{gantt: "none", width: 60, trace: filepath.Join(t.TempDir(), "t.csv")}
	if err := run(ptg, "chti", "amdahl", "mcpa", 1, o); err == nil {
		t.Fatal("trace with non-EMTS algorithm accepted")
	}
}

// captureStdout returns what f prints to standard output, failing the test
// if f fails.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	printed := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	ferr := f()
	os.Stdout = stdout
	w.Close()
	out := <-printed
	r.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	return string(out)
}

// TestTracedRunMatchesUntraced: -trace only attaches a generation observer
// to the resolved plan, so a traced run goes through the same run and
// schedule validation as an untraced one, and prints the same report with a
// measured elapsed time.
func TestTracedRunMatchesUntraced(t *testing.T) {
	ptg := writePTG(t)
	o := outputs{gantt: "ascii", width: 60}
	plain := captureStdout(t, func() error { return run(ptg, "chti", "synthetic", "emts5", 1, o) })
	o.trace = filepath.Join(t.TempDir(), "t.csv")
	traced := captureStdout(t, func() error { return run(ptg, "chti", "synthetic", "emts5", 1, o) })
	split := func(out string) (report []string, elapsed string) {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "elapsed:") {
				elapsed = line
				continue
			}
			report = append(report, line)
		}
		return report, elapsed
	}
	plainReport, _ := split(plain)
	tracedReport, elapsed := split(traced)
	if strings.Join(plainReport, "\n") != strings.Join(tracedReport, "\n") {
		t.Fatalf("traced report differs:\n%s\n--- untraced ---\n%s", traced, plain)
	}
	if elapsed == "" || strings.TrimSpace(strings.TrimPrefix(elapsed, "elapsed:")) == "0s" {
		t.Fatalf("traced run did not measure its time: %q", elapsed)
	}
}

// TestTraceAcceptsEveryEMTSSpelling: -trace takes every model and every
// spelling of an EMTS preset that an untraced run takes.
func TestTraceAcceptsEveryEMTSSpelling(t *testing.T) {
	ptg := writePTG(t)
	for _, c := range []struct {
		model, algo string
		generations int
	}{
		{"downey", "emts5", 5},
		{"synthetic", "EMTS5", 5},
		{"Model1", "emts", 5},
		{"synthetic-monotone", "Emts10", 10},
	} {
		trace := filepath.Join(t.TempDir(), "t.csv")
		o := outputs{gantt: "none", width: 60, trace: trace}
		captureStdout(t, func() error { return run(ptg, "chti", c.model, c.algo, 1, o) })
		data, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Count(string(data), "\n"); got != c.generations+1 {
			t.Fatalf("%s/%s: trace has %d lines, want %d", c.model, c.algo, got, c.generations+1)
		}
	}
}
