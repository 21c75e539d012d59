package order

import (
	"math"
	"testing"
)

func TestPunctFloorAdvancesOnMin(t *testing.T) {
	f := NewPunctFloor(3)
	if f.Floor() != math.MinInt64 {
		t.Fatalf("initial floor = %d", f.Floor())
	}
	if _, adv := f.Advance(0, 10); adv {
		t.Fatal("floor advanced before every source punctuated")
	}
	if _, adv := f.Advance(1, 20); adv {
		t.Fatal("floor advanced before every source punctuated")
	}
	floor, adv := f.Advance(2, 5)
	if !adv || floor != 5 {
		t.Fatalf("floor = %d advanced=%v, want 5 true", floor, adv)
	}
	// Raising a non-minimum source does not advance the floor.
	if floor, adv := f.Advance(0, 30); adv {
		t.Fatalf("floor advanced to %d on non-min source", floor)
	}
	// Raising the minimum source advances to the new minimum.
	floor, adv = f.Advance(2, 25)
	if !adv || floor != 20 {
		t.Fatalf("floor = %d advanced=%v, want 20 true", floor, adv)
	}
}

func TestPunctFloorMonotonicAndIdempotent(t *testing.T) {
	f := NewPunctFloor(2)
	f.Advance(0, 100)
	f.Advance(1, 50)
	// Stale and repeated punctuations never move the floor backwards.
	for _, tp := range []int64{50, 40, 10} {
		if floor, adv := f.Advance(1, tp); adv || floor != 50 {
			t.Fatalf("Advance(1, %d) -> floor %d advanced=%v", tp, floor, adv)
		}
	}
	prev := f.Floor()
	for i := int64(0); i < 100; i++ {
		floor, _ := f.Advance(int(i)%2, 60+i)
		if floor < prev {
			t.Fatalf("floor regressed: %d after %d", floor, prev)
		}
		prev = floor
	}
}

func TestPunctFloorHolderIsTheSlowestSource(t *testing.T) {
	f := NewPunctFloor(3)
	if f.Holder() != 0 {
		t.Fatalf("initial holder = %d, want 0 (lowest index among equals)", f.Holder())
	}
	f.Advance(0, 10)
	if f.Holder() != 1 {
		t.Fatalf("holder = %d, want 1: sources 1 and 2 have not punctuated", f.Holder())
	}
	f.Advance(1, 30)
	f.Advance(2, 20)
	if f.Holder() != 0 || f.Floor() != 10 {
		t.Fatalf("holder, floor = %d, %d, want 0, 10", f.Holder(), f.Floor())
	}
	f.Advance(0, 40)
	if f.Holder() != 2 || f.Floor() != 20 {
		t.Fatalf("holder, floor = %d, %d, want 2, 20", f.Holder(), f.Floor())
	}
	f.Advance(0, 35) // stale: nothing moves
	if f.Holder() != 2 {
		t.Fatalf("stale punctuation moved the holder to %d", f.Holder())
	}
}
