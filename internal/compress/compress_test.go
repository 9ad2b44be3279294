package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, src []byte) []byte {
	t.Helper()
	enc := Encode(src)
	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(dec, src) {
		t.Fatalf("round trip mismatch: %d bytes in, %d out", len(src), len(dec))
	}
	return enc
}

func TestRoundTripBasic(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		[]byte("a"),
		[]byte("abc"),
		[]byte("abcabcabcabcabcabcabc"),
		bytes.Repeat([]byte{0}, 100000),
		[]byte(strings.Repeat("the quick brown fox ", 500)),
	}
	for _, c := range cases {
		roundTrip(t, c)
	}
}

func TestCompressionRatioOnRepetitiveData(t *testing.T) {
	src := []byte(strings.Repeat("2015-03-23|42|camera|east-coast|", 4000))
	enc := roundTrip(t, src)
	if len(enc) > len(src)/5 {
		t.Errorf("repetitive data compressed to %d/%d bytes; expected ≥5x", len(enc), len(src))
	}
}

func TestIncompressibleDataBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := make([]byte, 1<<16)
	rng.Read(src)
	enc := roundTrip(t, src)
	if len(enc) > len(src)+len(src)/100+16 {
		t.Errorf("random data blew up: %d -> %d", len(src), len(enc))
	}
}

func TestOverlappingMatches(t *testing.T) {
	// RLE-style: matches that copy from their own output.
	src := append([]byte("ab"), bytes.Repeat([]byte("ab"), 1000)...)
	roundTrip(t, src)
}

func TestLongRangeAndWindowLimit(t *testing.T) {
	// A repeat 100 KiB apart exceeds the 64 KiB window and must still
	// round-trip (as literals).
	block := make([]byte, 1024)
	rand.New(rand.NewSource(3)).Read(block)
	var src []byte
	src = append(src, block...)
	src = append(src, bytes.Repeat([]byte{'x'}, 100*1024)...)
	src = append(src, block...)
	roundTrip(t, src)
}

func TestDecodedLen(t *testing.T) {
	src := []byte("hello hello hello")
	enc := Encode(src)
	n, err := DecodedLen(enc)
	if err != nil || n != len(src) {
		t.Errorf("DecodedLen = %d, %v; want %d", n, err, len(src))
	}
	if _, err := DecodedLen(nil); err == nil {
		t.Error("DecodedLen(nil): want error")
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,                  // truncated header
		{0x80},               // unterminated uvarint
		{10},                 // header says 10 bytes, no tokens
		{4, 0x04, 'a'},       // literal run of 2 but only 1 byte present
		{4, 0x01, 0x00},      // match with offset 0
		{4, 0x01, 0x09},      // match offset beyond output
		{1, 0x02, 'a', 0xF0}, // trailing truncated token
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

// TestDecodeBoundsTokensByDeclaredLength hand-builds frames whose token
// lengths disagree with the header (or whose header is past the limit): each
// must be rejected before Decode allocates or copies what it asks for.
func TestDecodeBoundsTokensByDeclaredLength(t *testing.T) {
	frame := func(n uint64, parts ...[]byte) []byte {
		return append(binary.AppendUvarint(nil, n), bytes.Join(parts, nil)...)
	}
	tok := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	cases := []struct {
		name string
		src  []byte
	}{
		{"match of 2^40 at offset 1", frame(8, tok(1<<1), []byte("a"), tok((1<<40-minMatch)<<1|1), tok(1))},
		{"literal run longer than n", frame(8, tok(9<<1), []byte("abcdefghi"))},
		{"match length overflows int", frame(8, tok(1<<1), []byte("a"), tok(math.MaxUint64), tok(1))},
		{"declared length past the limit", frame(maxDecoded+1, tok(1<<1), []byte("a"), tok((maxDecoded-minMatch)<<1|1), tok(1))},
		{"match fills past a full output", frame(8, tok(8<<1), []byte("abcdefgh"), tok(1), tok(1))},
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(c.src)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: want error", c.name)
		}
		// Process-wide counter, so leave room for the error string and
		// the runtime's own noise; trusting any of these lengths costs GBs.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: allocated %d bytes rejecting a %d-byte stream", c.name, grew, len(c.src))
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(a []byte, rep uint8) bool {
		src := bytes.Repeat(a, int(rep%8)+1)
		dec, err := Decode(Encode(src))
		return err == nil && bytes.Equal(dec, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickDecodeNeverPanics(t *testing.T) {
	// Arbitrary garbage must produce an error or a valid result, never a
	// panic or an out-of-bounds access.
	f := func(junk []byte) bool {
		_, _ = Decode(junk)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeText(b *testing.B) {
	src := []byte(strings.Repeat("1042|997|23|2015-03-23|grp-00042/path/x|deadbeef\n", 20000))
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		Encode(src)
	}
}

func BenchmarkDecodeText(b *testing.B) {
	src := []byte(strings.Repeat("1042|997|23|2015-03-23|grp-00042/path/x|deadbeef\n", 20000))
	enc := Encode(src)
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}
