package classmem

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// memoryDigests hashes a class memory as three SHA-256 streams over
// little-endian bytes, one per realization, so a drift names the part
// that moved:
//
//	labels: per class in row order, uint32 byte length then the label bytes
//	phi:    the ±1 float32 expansion of each row, row-major, as IEEE-754
//	        bits (uint32) — the matrix the float and crossbar tiles pack
//	words:  Items.Slab() row-major, each uint64 word (zero tail bits included)
func memoryDigests(m *Memory) (labels, phi, words string) {
	var lb, pb, wb []byte
	for _, l := range m.Labels {
		lb = binary.LittleEndian.AppendUint32(lb, uint32(len(l)))
		lb = append(lb, l...)
	}
	for c := 0; c < m.Items.Len(); c++ {
		for _, x := range m.Items.Vector(c).ToBipolar().Float32() {
			pb = binary.LittleEndian.AppendUint32(pb, math.Float32bits(x))
		}
	}
	for _, w := range m.Items.Slab() {
		wb = binary.LittleEndian.AppendUint64(wb, w)
	}
	return sha256Hex(lb), sha256Hex(pb), sha256Hex(wb)
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// TestBuildDigest pins the class memory every serving process rebuilds
// from (classes, dim, seed): the CUB-200 geometry and the 1000-class
// routed fleet, at the paper's d = 1536. A changed digest means every
// prototype, and with it every ranking, moved.
func TestBuildDigest(t *testing.T) {
	for _, tc := range []struct {
		classes            int
		labels, phi, words string
	}{
		{200,
			"4db1cdaa902b17588709ccc3d5c9a25bd56fe66a493eaca3bbe382e29a676c83",
			"ef119ca7d524f393456397c7014fddaa152d1f4966d04744a13dbd67b6a0911a",
			"466461fbffacdbae09b20848ad38f5051722765217a0ce975583220b653903ec"},
		{1000,
			"9ef13c6ca4b176650d69dda9613ac1758c0efb39f01abbcda2f6f6292c36f541",
			"9d1df06ca5fae5d1cc2b15f61355e4c250eea7c5c4cd5fee926cb7c187cf7aa8",
			"0db683dd5dd84b09df31cdc9a827a6bcd1e7616468079d982aa19fca1a80143e"},
	} {
		t.Run(fmt.Sprintf("classes=%d", tc.classes), func(t *testing.T) {
			labels, phi, words := memoryDigests(Build(tc.classes, 1536, 1))
			if labels != tc.labels {
				t.Errorf("labels digest %s, want %s", labels, tc.labels)
			}
			if phi != tc.phi {
				t.Errorf("phi digest %s, want %s", phi, tc.phi)
			}
			if words != tc.words {
				t.Errorf("words digest %s, want %s", words, tc.words)
			}
		})
	}
}
