package server

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// The ingest decoder converts each number while it checks the number's
// grammar (recordsParser.number), so the digits are scanned once. The scan
// appends them to a decimal mantissa (appendDigits); the rare mantissa of
// more than maxMantDigits significant digits is cut to that many
// (longMantissa). decimalToFloat turns mantissa and power of ten into the
// nearest float64, the value strconv.ParseFloat returns. It takes
// Clinger's exact path when one IEEE operation is exact, and otherwise the
// Eisel–Lemire algorithm (https://nigeltao.github.io/blog/2020/eisel-lemire.html)
// as Go's strconv implements it. Where neither applies it reports false
// and the caller falls back to strconv.ParseFloat, which also owns the
// out-of-range refusal.

// maxMantDigits is the most significant decimal digits a uint64 mantissa
// holds exactly: 10^19 - 1 < 2^64.
const maxMantDigits = 19

// appendDigits appends the run of ASCII digits at b[i:] to the decimal
// mantissa man, wrapping past 19 digits, and returns the index just past
// the run with the new mantissa.
func appendDigits(b []byte, i int, man uint64) (int, uint64) {
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		man = man*10 + uint64(c)
	}
	return i, man
}

// longMantissa reads the digits of a mantissa of more than maxMantDigits
// significant digits, s being its text between sign and exponent. It
// returns the first maxMantDigits significant digits as man, the power
// of ten of the last of them, and whether a non-zero digit was dropped;
// a dropped zero is exact.
func longMantissa(s []byte) (man uint64, exp10 int, trunc bool) {
	nd, point := 0, false
	for _, c := range s {
		switch {
		case c == '.':
			point = true
		case nd < maxMantDigits:
			if nd > 0 || c != '0' {
				man = man*10 + uint64(c-'0')
				nd++
			}
			if point {
				exp10--
			}
		default:
			if !point {
				exp10++
			}
			trunc = trunc || c != '0'
		}
	}
	return man, exp10, trunc
}

// float64Pow10 holds the powers of ten a float64 represents exactly.
var float64Pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}

// pow10MinExp10 and pow10MaxExp10 are the powers of ten of pow10Table's
// first and last rows, the range strconv's table covers.
const (
	pow10MinExp10 = -348
	pow10MaxExp10 = 347
)

// pow10Table[e-pow10MinExp10] is 10^e as a 128-bit mantissa, {low word,
// high word}, shifted so the high word's top bit is set and rounded down.
// The binary exponent is implied: Eisel–Lemire estimates it as
// 217706·e/2^16. The rows equal strconv's detailedPowersOfTen.
var pow10Table = buildPow10Table()

func buildPow10Table() (t [pow10MaxExp10 - pow10MinExp10 + 1][2]uint64) {
	var buf [16]byte
	row := func(m *big.Int) [2]uint64 {
		m.FillBytes(buf[:])
		return [2]uint64{binary.BigEndian.Uint64(buf[8:]), binary.BigEndian.Uint64(buf[:8])}
	}
	ten := big.NewInt(10)
	p := big.NewInt(1) // 10^e
	m := new(big.Int)
	for e := 0; e <= max(pow10MaxExp10, -pow10MinExp10); e++ {
		if e > 0 {
			p.Mul(p, ten)
		}
		n := p.BitLen()
		if e <= pow10MaxExp10 {
			// The top 128 bits of 10^e, truncated.
			if n >= 128 {
				m.Rsh(p, uint(n-128))
			} else {
				m.Lsh(p, uint(128-n))
			}
			t[e-pow10MinExp10] = row(m)
		}
		if e > 0 && -e >= pow10MinExp10 {
			// ⌊2^(127+n) / 10^e⌋ lies in [2^127, 2^128), as 10^e is not a
			// power of two.
			m.Lsh(big.NewInt(1), uint(127+n))
			m.Quo(m, p)
			t[-e-pow10MinExp10] = row(m)
		}
	}
	return t
}

// decimalToFloat returns the float64 nearest to ±man·10^exp10, rounding
// half to even, and true; or false when it cannot tell the answer cheaply
// (a subnormal or out-of-range result, an exponent beyond the table, or
// an Eisel–Lemire tie it cannot resolve). The sign is applied as a bit,
// without a branch: a body's signs are as random as its values.
func decimalToFloat(man uint64, exp10 int, neg bool) (float64, bool) {
	var sign uint64
	if neg {
		sign = 1 << 63
	}
	var f float64
	switch {
	case man == 0:
	case man < 1<<53 && -22 <= exp10 && exp10 <= 22:
		// Clinger's exact path: man and 10^|exp10| are both exact
		// float64s, so one correctly rounded multiply or divide gives the
		// answer.
		f = float64(man)
		if exp10 < 0 {
			f /= float64Pow10[-exp10]
		} else {
			f *= float64Pow10[exp10]
		}
	default:
		var ok bool
		if f, ok = eiselLemire(man, exp10); !ok {
			return 0, false
		}
	}
	return math.Float64frombits(math.Float64bits(f) | sign), true
}

// eiselLemire is strconv's eiselLemire64 over pow10Table, for a positive
// value; the section names refer to the blog post cited above. man must
// be non-zero.
func eiselLemire(man uint64, exp10 int) (float64, bool) {
	// Exp10 Range.
	if exp10 < pow10MinExp10 || pow10MaxExp10 < exp10 {
		return 0, false
	}
	pow := &pow10Table[exp10-pow10MinExp10]

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow[1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	// retExp2 0 or wrapped below it is subnormal; 0x7FF or above is
	// Inf/NaN.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	return math.Float64frombits(retExp2<<52 | retMantissa&(1<<52-1)), true
}
