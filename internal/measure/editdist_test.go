package measure

import (
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"
)

// oracleLev is the two-row rune DP, the reference every kernel path must
// reproduce.
func oracleLev(a, b string) int {
	var s levScratch
	return s.levRunes(a, b)
}

// kernelLev evaluates a pair the way the pair loops do: caller-owned
// scratch, a as the (possibly already compiled) pattern.
func kernelLev(s *levScratch, a, b string) int {
	if a == b {
		return 0
	}
	return s.lev(a, b, infoOf(a), infoOf(b))
}

// randString draws n symbols from alphabet (runes, so a non-ASCII
// alphabet yields multi-byte strings of n runes).
func randString(rng *rand.Rand, n int, alphabet []rune) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteRune(alphabet[rng.Intn(len(alphabet))])
	}
	return sb.String()
}

// TestLevenshteinKernelBoundaries sweeps every pair of lengths around the
// word boundaries, over a small alphabet (many matches, long diagonals)
// and a non-ASCII one, in both orientations and through one reused
// scratch, so recompiling across the 64-byte boundary is covered too.
func TestLevenshteinKernelBoundaries(t *testing.T) {
	lengths := []int{0, 1, 63, 64, 65, 127, 128, 129, 200}
	alphabets := map[string][]rune{
		"ascii":    []rune("abc"),
		"nonascii": []rune("aé日"),
	}
	for name, alphabet := range alphabets {
		rng := rand.New(rand.NewSource(int64(len(name))))
		var scr levScratch
		for _, la := range lengths {
			for _, lb := range lengths {
				a, b := randString(rng, la, alphabet), randString(rng, lb, alphabet)
				want := oracleLev(a, b)
				if got := kernelLev(&scr, a, b); got != want {
					t.Fatalf("%s: kernel(%d,%d) = %d, oracle %d\na=%q\nb=%q", name, la, lb, got, want, a, b)
				}
				if got := kernelLev(&scr, b, a); got != want {
					t.Fatalf("%s: kernel(%d,%d) reversed = %d, oracle %d", name, la, lb, got, want)
				}
				if got := Levenshtein(a, b); got != want {
					t.Fatalf("%s: Levenshtein(%d,%d) = %d, oracle %d", name, la, lb, got, want)
				}
				// Equal strings and near-equal ones (one edit at either end).
				if got := kernelLev(&scr, a, a); got != 0 {
					t.Fatalf("%s: kernel(a,a) = %d at length %d", name, got, la)
				}
				if la > 0 {
					for _, c := range []string{a[:len(a)-1] + "z", "z" + a, a + "z"} {
						if got, want := kernelLev(&scr, a, c), oracleLev(a, c); got != want {
							t.Fatalf("%s: near-equal at length %d: kernel %d, oracle %d", name, la, got, want)
						}
					}
				}
			}
		}
	}
	// ASCII against non-ASCII takes the rune path whichever side holds it.
	var scr levScratch
	for _, p := range [][2]string{{"kitten", "sittiñg"}, {"日本語", "nihongo"}, {"\xff", "\x80"}, {"a\xffb", "ab"}} {
		if got, want := kernelLev(&scr, p[0], p[1]), oracleLev(p[0], p[1]); got != want {
			t.Errorf("kernel(%q,%q) = %d, oracle %d", p[0], p[1], got, want)
		}
		if got, want := Levenshtein(p[1], p[0]), oracleLev(p[0], p[1]); got != want {
			t.Errorf("Levenshtein(%q,%q) = %d, oracle %d", p[1], p[0], got, want)
		}
	}
}

// FuzzLevenshteinKernel: bit-vector ≡ two-row DP on arbitrary byte strings
// (invalid UTF-8 included), both orientations, with the pattern left
// compiled from the previous orientation.
func FuzzLevenshteinKernel(f *testing.F) {
	long := strings.Repeat("abcdefghij", 13)
	for _, seed := range [][2]string{
		{"", ""}, {"a", ""}, {"kitten", "sitting"}, {"日本語", "日本"},
		{long, long[3:90]}, {long[:64], long[:65]}, {long, "x" + long}, {"\xff\xfe", "\x80"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 300 || len(b) > 300 {
			t.Skip()
		}
		want := oracleLev(a, b)
		var scr levScratch
		if got := kernelLev(&scr, a, b); got != want {
			t.Fatalf("kernel(%q,%q) = %d, oracle %d", a, b, got, want)
		}
		if got := kernelLev(&scr, b, a); got != want {
			t.Fatalf("kernel(%q,%q) = %d, oracle %d", b, a, got, want)
		}
		if got := Levenshtein(a, b); got != want {
			t.Fatalf("Levenshtein(%q,%q) = %d, oracle %d", a, b, got, want)
		}
		if a != b {
			m := max(utf8.RuneCountInString(a), utf8.RuneCountInString(b))
			if got, want := NormalizedLevenshtein(a, b), float64(want)/float64(m); got != want {
				t.Fatalf("NormalizedLevenshtein(%q,%q) = %v, want %v", a, b, got, want)
			}
		}
	})
}
