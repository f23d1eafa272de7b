// Package wiretest is the contract every decoder of foreign bytes is tested
// and fuzzed against, written once.
package wiretest

import (
	"bytes"
	"testing"
)

// CheckDecoder feeds data to recode, which decodes its argument and encodes
// the result again (an error means the decoder rejected it, which is always
// allowed). recode must not panic, and what it accepts must re-encode to at
// most a small multiple of the input — wire.Reader.Count keeps a lying count
// from buying more — and to a fixed point: encode→decode→encode yields the
// same bytes, so no accepted input is read two ways. It returns the
// encoding, or nil if data was rejected.
func CheckDecoder(t testing.TB, data []byte, recode func([]byte) ([]byte, error)) []byte {
	t.Helper()
	enc1, err := recode(data)
	if err != nil {
		return nil
	}
	if len(enc1) > 64*len(data)+64 {
		t.Fatalf("%d input bytes decoded to %d", len(data), len(enc1))
	}
	enc2, err := recode(enc1)
	if err != nil {
		t.Fatalf("re-encoded input rejected: %v\n%x", err, enc1)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Fatalf("encode→decode→encode not a fixed point:\n %x\n %x", enc1, enc2)
	}
	return enc1
}
