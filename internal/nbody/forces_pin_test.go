package nbody

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// TestComputeForcesPinned pins the exact bits of the tree accelerations
// and interaction counts over a few leapfrog steps, at several opening
// angles and with a cluster of coincident bodies. The figures consume
// these values directly, so a rewrite of the traversal must reproduce
// them bit for bit, not merely within a tolerance.
func TestComputeForcesPinned(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	for _, theta := range []float64{0, 0.5, 1.0} {
		s := NewRandomSphere(300, 3)
		s.Theta = theta
		s.DT = 0.02
		for i := 1; i < 8; i++ {
			s.Bodies[i].Pos = s.Bodies[0].Pos
		}
		for step := 0; step < 3; step++ {
			acc, counts := s.ComputeForces()
			for i := range acc {
				for k := 0; k < 3; k++ {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(acc[i][k]))
					h.Write(buf[:])
				}
				binary.LittleEndian.PutUint64(buf[:], uint64(counts[i]))
				h.Write(buf[:])
			}
			s.Step(acc)
		}
	}
	if got, want := hex.EncodeToString(h.Sum(nil)[:8]), "bf28c31e7396d4bc"; got != want {
		t.Fatalf("force digest %s, want %s", got, want)
	}
}
