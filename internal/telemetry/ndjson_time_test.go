package telemetry

import (
	"math/rand"
	"strconv"
	"testing"
	"time"

	"rrtcp/internal/sim"
)

// floatSeconds is the reference encoding appendSeconds must reproduce.
func floatSeconds(t sim.Time) string {
	return string(strconv.AppendFloat(nil, t.Seconds(), 'f', 9, 64))
}

func TestAppendSecondsMatchesAppendFloat(t *testing.T) {
	cases := []sim.Time{
		0,
		1,
		999_999_999,
		time.Second,
		time.Second + 1,
		10*time.Millisecond + 7,
		exactSecondsLimit - 1,
		exactSecondsLimit,
		exactSecondsLimit + 1,
		-1,
		-1500 * time.Millisecond,
	}
	for _, at := range cases {
		got := string(appendSeconds(nil, at))
		if want := floatSeconds(at); got != want {
			t.Errorf("appendSeconds(%d) = %q, want %q", int64(at), got, want)
		}
	}
}

// TestAppendSecondsSampled compares the two encodings on seeded instants
// spread log-uniformly below the fallback threshold, where the integer
// path is taken.
func TestAppendSecondsSampled(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200_000; i++ {
		at := sim.Time(rng.Int63n(int64(1) << (1 + rng.Intn(50))))
		if got, want := string(appendSeconds(nil, at)), floatSeconds(at); got != want {
			t.Fatalf("appendSeconds(%d) = %q, want %q", int64(at), got, want)
		}
	}
}

// FuzzNDJSONTime checks the integer time writer against AppendFloat on
// arbitrary instants, both sides of the fallback threshold included.
func FuzzNDJSONTime(f *testing.F) {
	for _, seed := range []int64{0, 1, 999_999_999, 1e9, int64(exactSecondsLimit) - 1, int64(exactSecondsLimit), -1, 1<<63 - 1, -1 << 63} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ns int64) {
		at := sim.Time(ns)
		if got, want := string(appendSeconds(nil, at)), floatSeconds(at); got != want {
			t.Fatalf("appendSeconds(%d) = %q, want %q", ns, got, want)
		}
	})
}
