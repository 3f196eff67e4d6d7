package tas

import (
	"testing"

	"sublock/rmr"
)

func TestSequential(t *testing.T) {
	m := rmr.NewMemory(rmr.CC, 1, nil)
	l := New(m)
	h := l.Handle(m.Proc(0))
	for i := 0; i < 5; i++ {
		if !h.Enter() {
			t.Fatal("Enter failed")
		}
		h.Exit()
	}
}

func TestSpaceIsOneWord(t *testing.T) {
	m := rmr.NewMemory(rmr.CC, 4, nil)
	New(m)
	if got := m.Size(); got != 1 {
		t.Fatalf("TAS lock uses %d words, want 1", got)
	}
}
