package jvm

import (
	"testing"

	"repro/internal/telemetry"
)

// TestDecodeCacheRotation pins the generational discipline: filling the
// live generation rotates it into prev (one rotation) instead of
// dropping everything, and entries of the previous generation are still
// served.
func TestDecodeCacheRotation(t *testing.T) {
	c := NewDecodeCache()
	codes := make([][]byte, decodeCacheMax+1)
	rotations := 0
	for i := range codes {
		codes[i] = []byte{0x10, byte(i), byte(i >> 8)}
		if c.put(codes[i], decodedCode{}) {
			rotations++
		}
	}
	if rotations != 1 {
		t.Fatalf("rotations = %d after one overflow, want 1", rotations)
	}
	// The overflowing entry lives in the fresh generation; the rest sit
	// in prev and must still hit.
	for _, code := range codes {
		if _, ok := c.get(code); !ok {
			t.Fatalf("entry %v lost after rotation", code)
		}
	}
}

// TestDecodeCacheSecondChance pins promotion: an old-generation entry
// that gets used is promoted into the live generation and survives the
// next rotation, while untouched old entries age out after two.
func TestDecodeCacheSecondChance(t *testing.T) {
	c := NewDecodeCache()
	hot := []byte{0xb1}
	c.put(hot, decodedCode{})

	fill := func(gen byte) {
		for i := 0; i < decodeCacheMax; i++ {
			c.put([]byte{gen, byte(i), byte(i >> 8)}, decodedCode{})
		}
	}
	fill(1) // rotates: hot moves to prev
	if _, ok := c.get(hot); !ok {
		t.Fatal("hot entry missing from previous generation")
	}
	fill(2) // rotates again: hot was promoted, so it survives
	if _, ok := c.get(hot); !ok {
		t.Fatal("promoted entry did not survive the second rotation")
	}
	// An entry that was never re-used after its generation rotated away
	// is gone after two more rotations.
	cold := []byte{0x03}
	c.put(cold, decodedCode{})
	fill(3)
	fill(4)
	if _, ok := c.get(cold); ok {
		t.Fatal("cold entry survived two rotations without use")
	}
}

// TestDecodeCacheEvictionTelemetry pins the counter surface: rotations
// on a VM's decode path tick jvm.<spec>.decode_cache.evictions.
func TestDecodeCacheEvictionTelemetry(t *testing.T) {
	vm := New(HotSpot9())
	reg := telemetry.New()
	vm.SetTelemetry(reg)
	for i := 0; i <= decodeCacheMax; i++ {
		vm.decodeCode([]byte{0x10, byte(i), byte(i >> 8)})
	}
	name := "jvm." + vm.Spec.Name + ".decode_cache.evictions"
	if got := reg.Snapshot().Counter(name); got != 1 {
		t.Fatalf("%s = %d, want 1", name, got)
	}
}
