package main

import "testing"

// The escalation table's percentiles are nearest-rank: over 16 samples the
// p99 is the largest value, not the 15th that an (n-1)-scaled index picks.
func TestThreatPercentilesNearestRank(t *testing.T) {
	xs := []int64{16, 1, 15, 2, 14, 3, 13, 4, 12, 5, 11, 6, 10, 7, 9, 8}
	if p50, p99 := percentiles(xs); p50 != 8 || p99 != 16 {
		t.Errorf("percentiles of 1..16 = p50 %d, p99 %d; want 8, 16", p50, p99)
	}
	if xs[0] != 16 {
		t.Error("percentiles reordered its input")
	}
}
