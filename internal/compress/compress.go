// Package compress implements a byte-oriented LZ77 block compressor in the
// spirit of Snappy: fast, no entropy coding, tuned for the columnar file
// format's column chunks (internal/format). The paper stores the HDFS log
// table in Parquet with Snappy compression, which shrinks the 1 TB text table
// to 421 GB; this package plays that role for the HWC columnar format.
//
// Stream layout: uvarint(decompressed length), then a sequence of tokens.
// Each token is uvarint(t): if t is even, a literal run of t/2 bytes follows;
// if t is odd, it is a match of length t/2+minMatch at uvarint(offset) bytes
// back in the output.
package compress

import (
	"encoding/binary"
	"fmt"
	"slices"
)

const (
	minMatch    = 4
	maxOffset   = 1 << 16 // 64 KiB window
	hashBits    = 14
	hashShift   = 32 - hashBits
	tableSize   = 1 << hashBits
	skipTrigger = 5 // accelerate through incompressible regions
	// maxDecoded bounds the length a stream may declare, so a consistent but
	// hostile stream cannot ask for more than this (and no length overflows
	// int); column chunks and wire frames are orders of magnitude smaller.
	maxDecoded = 1 << 30
	// maxPrealloc is the largest declared length Decode allocates on trust.
	maxPrealloc = 1 << 22
)

func hash4(b []byte) uint32 {
	v := binary.LittleEndian.Uint32(b)
	return (v * 2654435761) >> hashShift
}

// Encode compresses src and returns a newly allocated buffer. Encoding never
// fails; incompressible input grows by at most a few bytes per 64 KiB.
func Encode(src []byte) []byte {
	dst := binary.AppendUvarint(nil, uint64(len(src)))
	if len(src) == 0 {
		return dst
	}

	var table [tableSize]int32 // position+1 of last occurrence of each hash
	litStart := 0
	i := 0
	skip := 0

	emitLiterals := func(end int) {
		if end > litStart {
			n := end - litStart
			dst = binary.AppendUvarint(dst, uint64(n)<<1)
			dst = append(dst, src[litStart:end]...)
		}
	}

	for i+minMatch <= len(src) {
		h := hash4(src[i:])
		cand := int(table[h]) - 1
		table[h] = int32(i + 1)
		if cand >= 0 && i-cand <= maxOffset && binary.LittleEndian.Uint32(src[cand:]) == binary.LittleEndian.Uint32(src[i:]) {
			// Extend the match forward.
			length := minMatch
			for i+length < len(src) && src[cand+length] == src[i+length] {
				length++
			}
			emitLiterals(i)
			dst = binary.AppendUvarint(dst, uint64(length-minMatch)<<1|1)
			dst = binary.AppendUvarint(dst, uint64(i-cand))
			i += length
			litStart = i
			skip = 0
			continue
		}
		skip++
		i += 1 + skip>>skipTrigger
	}
	emitLiterals(len(src))
	return dst
}

// Decode decompresses a buffer produced by Encode. Every length in the stream
// is untrusted input, the header included: a run or match that would take the
// output past the declared length is an error before anything is copied, and
// a declared length too large to be cheap to be wrong about must first prove
// itself in a dry run over the tokens. Junk therefore costs an error and at
// most maxPrealloc bytes, never the allocation it asks for.
func Decode(src []byte) ([]byte, error) {
	return AppendDecode(nil, src)
}

// AppendDecode decompresses src like Decode and appends the output to dst,
// growing dst only when its spare capacity is short, so a reader decoding
// many chunks can reuse one buffer. On error it returns dst as passed.
func AppendDecode(dst, src []byte) ([]byte, error) {
	n, sz := binary.Uvarint(src)
	if sz <= 0 {
		return dst, fmt.Errorf("compress: truncated header")
	}
	src = src[sz:]
	if n > maxDecoded {
		return dst, fmt.Errorf("compress: declared length %d exceeds the %d-byte limit", n, maxDecoded)
	}
	if n > maxPrealloc {
		if _, err := decodeTokens(src, n, nil, true); err != nil {
			return dst, err
		}
	}
	out, err := decodeTokens(src, n, slices.Grow(dst, int(n)), false)
	if err != nil {
		return dst, err
	}
	return out, nil
}

// decodeTokens walks the token sequence of a stream declaring n bytes,
// appending the output to dst — or, when dry, only checking that the tokens
// are well-formed and add up to exactly n.
func decodeTokens(src []byte, n uint64, dst []byte, dry bool) ([]byte, error) {
	// Lengths are compared in uint64, before any conversion to int can
	// overflow, against the room the header leaves.
	have := uint64(0)
	for len(src) > 0 {
		t, sz := binary.Uvarint(src)
		if sz <= 0 {
			return nil, fmt.Errorf("compress: truncated token")
		}
		src = src[sz:]
		room := n - have
		if t&1 == 0 {
			// Literal run.
			l := t >> 1
			if l > room {
				return nil, fmt.Errorf("compress: literal run of %d exceeds declared length %d", l, n)
			}
			if l > uint64(len(src)) {
				return nil, fmt.Errorf("compress: literal run of %d exceeds input", l)
			}
			if !dry {
				dst = append(dst, src[:l]...)
			}
			src = src[l:]
			have += l
			continue
		}
		if room < minMatch || t>>1 > room-minMatch {
			return nil, fmt.Errorf("compress: match of %d+%d exceeds declared length %d", t>>1, minMatch, n)
		}
		length := t>>1 + minMatch
		off, sz := binary.Uvarint(src)
		if sz <= 0 {
			return nil, fmt.Errorf("compress: truncated offset")
		}
		src = src[sz:]
		if off == 0 || off > have {
			return nil, fmt.Errorf("compress: offset %d out of range (have %d)", off, have)
		}
		if !dry {
			// Byte-at-a-time copy: matches may overlap their own output
			// (run-length style), so bulk copy is not safe.
			pos := len(dst) - int(off)
			for j := 0; j < int(length); j++ {
				dst = append(dst, dst[pos+j])
			}
		}
		have += length
	}
	if have != n {
		return nil, fmt.Errorf("compress: decoded %d bytes, header says %d", have, n)
	}
	return dst, nil
}

// DecodedLen reports the decompressed size recorded in the stream header
// without decompressing.
func DecodedLen(src []byte) (int, error) {
	n, sz := binary.Uvarint(src)
	if sz <= 0 {
		return 0, fmt.Errorf("compress: truncated header")
	}
	return int(n), nil
}
