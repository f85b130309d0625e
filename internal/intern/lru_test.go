package intern

import "testing"

// TestLRU covers the bound and the eviction order, the recency refresh on
// Get, Add's adoption of a resident value, Stats and Len.
func TestLRU(t *testing.T) {
	c := NewLRU[string, int](2)
	get := func(key string, want int, wantOK bool) {
		t.Helper()
		if v, ok := c.Get(key); v != want || ok != wantOK {
			t.Fatalf("Get(%q) = (%d, %v), want (%d, %v)", key, v, ok, want, wantOK)
		}
	}
	if got := c.Add("a", 1); got != 1 {
		t.Fatalf("Add(a, 1) = %d, want 1", got)
	}
	c.Add("b", 2)
	get("a", 1, true) // a is now the most recent, b the victim
	c.Add("c", 3)
	if got := c.Len(); got != 2 {
		t.Fatalf("Len = %d after exceeding capacity 2", got)
	}
	get("b", 0, false)

	// A second Add of a resident key keeps the resident value and refreshes
	// it, so c is evicted next.
	if got := c.Add("a", 10); got != 1 {
		t.Fatalf("Add(a, 10) over a resident a = %d, want the resident 1", got)
	}
	c.Add("d", 4)
	get("c", 0, false)
	get("a", 1, true)
	get("d", 4, true)

	if hits, misses := c.Stats(); hits != 3 || misses != 2 {
		t.Fatalf("Stats = (%d, %d), want (3, 2)", hits, misses)
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}

	// A non-positive capacity selects DefaultEntries.
	d := NewLRU[int, int](0)
	for i := 0; i <= DefaultEntries; i++ {
		d.Add(i, i)
	}
	if got := d.Len(); got != DefaultEntries {
		t.Fatalf("Len = %d with the default capacity, want %d", got, DefaultEntries)
	}
}
