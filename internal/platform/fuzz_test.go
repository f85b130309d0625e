package platform

import (
	"math"
	"strings"
	"testing"
)

// FuzzRead checks the platform reader never panics and only accepts valid
// clusters.
func FuzzRead(f *testing.F) {
	f.Add("chti 20 4.3\n")
	f.Add(`{"name":"x","procs":8,"speed_gflops":2.5}`)
	f.Add("# comment\n\n grelon 120 3.1")
	f.Add("a b c")
	f.Add("")
	f.Add("x 4 NaN")
	f.Add("x 4 Inf")
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Read(strings.NewReader(src))
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted invalid cluster %+v: %v", c, err)
		}
		// Independent of Validate: every derived execution time divides by
		// the speed, so it must be a finite positive number.
		if !(c.SpeedGFlops > 0) || math.IsInf(c.SpeedGFlops, 0) || c.Procs < 1 {
			t.Fatalf("accepted unusable cluster %+v", c)
		}
	})
}
