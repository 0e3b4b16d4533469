package subscribe

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// StreamHash fingerprints a delta stream, every field of every delta in
// order, so a test can pin a whole stream to one recorded constant.
func StreamHash(ds []Delta) string {
	h := sha256.New()
	var b [33]byte
	for _, d := range ds {
		binary.LittleEndian.PutUint64(b[0:], d.Seq)
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(d.Time))
		binary.LittleEndian.PutUint64(b[16:], uint64(d.Sub))
		binary.LittleEndian.PutUint64(b[24:], uint64(d.OID))
		b[32] = byte(d.Kind)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
