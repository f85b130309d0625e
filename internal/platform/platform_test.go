package platform

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestPresetsMatchPaper(t *testing.T) {
	chti := Chti()
	if chti.Procs != 20 || chti.SpeedGFlops != 4.3 {
		t.Fatalf("Chti = %+v, want 20 procs at 4.3 GFLOPS", chti)
	}
	grelon := Grelon()
	if grelon.Procs != 120 || grelon.SpeedGFlops != 3.1 {
		t.Fatalf("Grelon = %+v, want 120 procs at 3.1 GFLOPS", grelon)
	}
	both := Both()
	if len(both) != 2 || both[0].Name != "chti" || both[1].Name != "grelon" {
		t.Fatalf("Both() = %v", both)
	}
}

func TestSequentialTime(t *testing.T) {
	c := Cluster{Name: "x", Procs: 1, SpeedGFlops: 2}
	// 4e9 FLOP on a 2 GFLOPS processor takes 2 seconds.
	if got := c.SequentialTime(4e9); got != 2 {
		t.Fatalf("SequentialTime = %g, want 2", got)
	}
}

func TestValidate(t *testing.T) {
	cases := []Cluster{
		{Name: "zero-procs", Procs: 0, SpeedGFlops: 1},
		{Name: "neg-procs", Procs: -3, SpeedGFlops: 1},
		{Name: "zero-speed", Procs: 4, SpeedGFlops: 0},
		{Name: "neg-speed", Procs: 4, SpeedGFlops: -1},
		{Name: "nan-speed", Procs: 4, SpeedGFlops: math.NaN()},
		{Name: "inf-speed", Procs: 4, SpeedGFlops: math.Inf(1)},
		{Name: "neg-inf-speed", Procs: 4, SpeedGFlops: math.Inf(-1)},
	}
	for _, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
	if _, err := New("ok", 8, 1.5); err != nil {
		t.Fatalf("New valid cluster: %v", err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	c := Chti()
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != c {
		t.Fatalf("round trip: got %+v want %+v", got, c)
	}
}

func TestReadTextFormat(t *testing.T) {
	src := "# Grid'5000 Chti cluster\n\nchti 20 4.3\n"
	got, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if got != Chti() {
		t.Fatalf("got %+v want %+v", got, Chti())
	}
}

func TestReadTextWithLeadingSpace(t *testing.T) {
	got, err := Read(strings.NewReader("   \n\t grelon 120 3.1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got != Grelon() {
		t.Fatalf("got %+v", got)
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := []string{
		"",                  // empty
		"# only comments\n", // no definition
		"chti 20\n",         // missing field
		"chti twenty 4.3\n", // bad procs
		"chti 20 fast\n",    // bad speed
		"chti 0 4.3\n",      // invalid procs
		"x 4 NaN\n",         // non-finite speed
		"x 4 Inf\n",         // non-finite speed
		`{"name":"x","procs":0,"speed_gflops":1}`, // invalid JSON cluster
		`{"procs": "x"}`, // bad JSON types
	}
	for _, src := range cases {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("Read(%q) succeeded, want error", src)
		}
	}
}

func TestStringer(t *testing.T) {
	s := Chti().String()
	if !strings.Contains(s, "chti") || !strings.Contains(s, "20") {
		t.Fatalf("String() = %q", s)
	}
}
