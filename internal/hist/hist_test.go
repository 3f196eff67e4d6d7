package hist

import "testing"

func TestHistBucketing(t *testing.T) {
	var h Hist
	cases := []struct {
		v      int64
		bucket int
	}{
		{0, 0}, {-5, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 38, 39}, {1<<46 - 1, 46}, {1 << 46, NumBuckets - 1}, {1<<62 + 1, NumBuckets - 1},
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	s := h.Snapshot()
	want := make([]int64, NumBuckets)
	for _, c := range cases {
		want[c.bucket]++
	}
	for b := range want {
		if s.Counts[b] != want[b] {
			t.Errorf("bucket %d = %d, want %d", b, s.Counts[b], want[b])
		}
	}
	if got := s.Count(); got != int64(len(cases)) {
		t.Errorf("Count() = %d, want %d", got, len(cases))
	}
}

func TestHistSnapshotStats(t *testing.T) {
	var h Hist
	for i := 0; i < 90; i++ {
		h.Observe(1) // bucket 1, upper edge 1
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000) // bucket 10, upper edge 1023
	}
	s := h.Snapshot()
	if got := s.Mean(); got != float64(90+10*1000)/100 {
		t.Errorf("Mean = %v", got)
	}
	if got := s.Quantile(0.5); got != 1 {
		t.Errorf("p50 = %d, want 1", got)
	}
	if got := s.Quantile(0.99); got != 1023 {
		t.Errorf("p99 = %d, want 1023 (upper edge of bucket 10)", got)
	}
	if got := s.Quantile(2); got != 1023 { // clamps to rank n
		t.Errorf("Quantile(2) = %d, want 1023", got)
	}
	if got := s.Quantile(-1); got != 1 { // clamps to rank 1
		t.Errorf("Quantile(-1) = %d, want 1", got)
	}
	var empty Snapshot
	if empty.Mean() != 0 || empty.Quantile(0.5) != 0 {
		t.Error("empty snapshot stats must be zero")
	}
}
