// Package platform models the homogeneous clusters of Section II-A and IV-A:
// P identical processors interconnected by a network, each pair able to
// communicate, characterized by a per-processor computing speed in GFLOPS.
//
// The two Grid'5000 production clusters used in the paper's evaluation are
// provided as presets: Chti (Lille, 20 nodes at 4.3 GFLOPS) and Grelon
// (Nancy, 120 nodes at 3.1 GFLOPS), with peak performance as measured by the
// authors with HP-LinPACK/ACML.
package platform

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Cluster is a homogeneous cluster: Procs identical processors, each with
// SpeedGFlops * 1e9 floating point operations per second. Clusters are
// immutable value types.
type Cluster struct {
	// Name labels the cluster (e.g. "chti").
	Name string
	// Procs is P, the number of identical processors.
	Procs int
	// SpeedGFlops is the per-processor computing speed in GFLOPS.
	SpeedGFlops float64
}

// New returns a validated cluster.
func New(name string, procs int, speedGFlops float64) (Cluster, error) {
	c := Cluster{Name: name, Procs: procs, SpeedGFlops: speedGFlops}
	return c, c.Validate()
}

// Validate reports whether the cluster description is usable.
func (c Cluster) Validate() error {
	if c.Procs <= 0 {
		return fmt.Errorf("platform: cluster %q has %d processors, need >= 1", c.Name, c.Procs)
	}
	// NaN fails every comparison and +Inf passes > 0, so both need their own
	// test: either would poison every execution time derived from the speed.
	if !(c.SpeedGFlops > 0) || math.IsInf(c.SpeedGFlops, 1) {
		return fmt.Errorf("platform: cluster %q has speed %g GFLOPS, need a finite value > 0", c.Name, c.SpeedGFlops)
	}
	return nil
}

// SpeedFlops returns the per-processor speed in FLOP/s.
func (c Cluster) SpeedFlops() float64 { return c.SpeedGFlops * 1e9 }

// SequentialTime returns the time to execute flops floating point operations
// on a single processor of this cluster.
func (c Cluster) SequentialTime(flops float64) float64 { return flops / c.SpeedFlops() }

// String implements fmt.Stringer.
func (c Cluster) String() string {
	return fmt.Sprintf("%s (%d procs x %.1f GFLOPS)", c.Name, c.Procs, c.SpeedGFlops)
}

// Chti returns the platform model of the Chti cluster in Lille:
// 20 computational nodes of 4.3 GFLOPS each (Section IV-A).
func Chti() Cluster { return Cluster{Name: "chti", Procs: 20, SpeedGFlops: 4.3} }

// Grelon returns the platform model of the Grelon cluster in Nancy:
// 120 computational nodes of 3.1 GFLOPS each (Section IV-A).
func Grelon() Cluster { return Cluster{Name: "grelon", Procs: 120, SpeedGFlops: 3.1} }

// Both returns the two evaluation platforms in paper order (Chti, Grelon).
func Both() []Cluster { return []Cluster{Chti(), Grelon()} }

// jsonCluster mirrors Cluster for the JSON platform file format.
type jsonCluster struct {
	Name        string  `json:"name"`
	Procs       int     `json:"procs"`
	SpeedGFlops float64 `json:"speed_gflops"`
}

// MarshalJSON encodes the cluster in the platform file format.
func (c Cluster) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonCluster{c.Name, c.Procs, c.SpeedGFlops})
}

// UnmarshalJSON decodes and validates a cluster from the platform file format.
func (c *Cluster) UnmarshalJSON(data []byte) error {
	var jc jsonCluster
	if err := json.Unmarshal(data, &jc); err != nil {
		return fmt.Errorf("platform: decoding cluster: %w", err)
	}
	*c = Cluster{Name: jc.Name, Procs: jc.Procs, SpeedGFlops: jc.SpeedGFlops}
	return c.Validate()
}

// Read parses a platform file. Two formats are accepted, detected by the first
// non-space byte:
//
//   - JSON: {"name": "chti", "procs": 20, "speed_gflops": 4.3}
//   - Text (one line, SimGrid-inspired): "name procs speed_gflops",
//     with '#' comments and blank lines ignored.
func Read(r io.Reader) (Cluster, error) {
	br := bufio.NewReader(r)
	first, err := peekNonSpace(br)
	if err != nil {
		return Cluster{}, fmt.Errorf("platform: empty platform file")
	}
	if first == '{' {
		var c Cluster
		if err := json.NewDecoder(br).Decode(&c); err != nil {
			return Cluster{}, fmt.Errorf("platform: decoding JSON platform: %w", err)
		}
		return c, c.Validate()
	}
	return readText(br)
}

func peekNonSpace(br *bufio.Reader) (byte, error) {
	for {
		b, err := br.Peek(1)
		if err != nil {
			return 0, err
		}
		if strings.ContainsRune(" \t\r\n", rune(b[0])) {
			if _, err := br.ReadByte(); err != nil {
				return 0, err
			}
			continue
		}
		return b[0], nil
	}
}

func readText(br *bufio.Reader) (Cluster, error) {
	sc := bufio.NewScanner(br)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return Cluster{}, fmt.Errorf("platform: want %q, got %q", "name procs speed_gflops", line)
		}
		procs, err := strconv.Atoi(fields[1])
		if err != nil {
			return Cluster{}, fmt.Errorf("platform: bad processor count %q: %w", fields[1], err)
		}
		speed, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return Cluster{}, fmt.Errorf("platform: bad speed %q: %w", fields[2], err)
		}
		c := Cluster{Name: fields[0], Procs: procs, SpeedGFlops: speed}
		return c, c.Validate()
	}
	if err := sc.Err(); err != nil {
		return Cluster{}, err
	}
	return Cluster{}, errors.New("platform: no cluster definition found")
}

// Write encodes the cluster as indented JSON.
func (c Cluster) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}
