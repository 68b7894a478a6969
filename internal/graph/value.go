package graph

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind discriminates the dynamic type of an attribute Value.
type Kind uint8

const (
	// KindNull is the zero Kind; it marks an absent value.
	KindNull Kind = iota
	// KindBool marks a boolean value.
	KindBool
	// KindNumber marks a numeric value (integers and floats share one kind).
	KindNumber
	// KindString marks a string value.
	KindString
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed attribute value attached to a graph node.
// The zero Value is the null value. Values are comparable with Compare and
// totally ordered within a kind; across kinds the order is
// null < bool < number < string, which keeps active domains well defined
// even for mixed-typed attributes.
type Value struct {
	kind Kind
	num  float64
	str  string
}

// Null is the absent value.
var Null = Value{}

// Num returns a numeric Value.
func Num(f float64) Value { return Value{kind: KindNumber, num: f} }

// Int returns a numeric Value holding an integer.
func Int(i int64) Value { return Value{kind: KindNumber, num: float64(i)} }

// Str returns a string Value.
func Str(s string) Value { return Value{kind: KindString, str: s} }

// Bool returns a boolean Value.
func Bool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.num = 1
	}
	return v
}

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Float returns the numeric content of v. It is 0 for non-numeric values
// except bools, where it is 0 or 1.
func (v Value) Float() float64 {
	if v.kind == KindNumber || v.kind == KindBool {
		return v.num
	}
	return 0
}

// Text returns the string content of v, or "" when v is not a string.
func (v Value) Text() string {
	if v.kind == KindString {
		return v.str
	}
	return ""
}

// IsTrue reports whether v is the boolean true.
func (v Value) IsTrue() bool { return v.kind == KindBool && v.num != 0 }

// Compare totally orders values: negative when v < w, zero when equal,
// positive when v > w. Within KindNumber the order is numeric with NaN
// sorting before every other number (and equal to itself) — IEEE
// comparisons alone would make NaN "equal" to everything, breaking the
// transitivity the sorted attribute indexes rely on. Within KindString the
// order is lexicographic; across kinds null < bool < number < string.
func (v Value) Compare(w Value) int {
	if v.kind != w.kind {
		return int(v.kind) - int(w.kind)
	}
	switch v.kind {
	case KindNumber, KindBool:
		vn, wn := math.IsNaN(v.num), math.IsNaN(w.num)
		switch {
		case vn && wn:
			return 0
		case vn:
			return -1
		case wn:
			return 1
		case v.num < w.num:
			return -1
		case v.num > w.num:
			return 1
		default:
			return 0
		}
	case KindString:
		return strings.Compare(v.str, w.str)
	default:
		return 0
	}
}

// Equal reports whether v and w are the same value.
func (v Value) Equal(w Value) bool { return v.Compare(w) == 0 }

// String renders the value for display and serialization.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindNumber:
		if v.num == math.Trunc(v.num) && math.Abs(v.num) < 1e15 {
			return strconv.FormatInt(int64(v.num), 10)
		}
		return strconv.FormatFloat(v.num, 'g', -1, 64)
	case KindString:
		return v.str
	case KindBool:
		if v.num != 0 {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// ParseValue converts a textual representation into a Value. Numbers (what
// strconv.ParseFloat accepts whole) parse as KindNumber, "true"/"false" as
// KindBool, everything else as KindString. ParseFloat is tried only on a
// byte it can start with, so a word costs no failed parse.
func ParseValue(s string) Value {
	switch s {
	case "", "null":
		return Null
	case "true":
		return Bool(true)
	case "false":
		return Bool(false)
	}
	if c := s[0]; '0' <= c && c <= '9' || strings.IndexByte("+-.iInN", c) >= 0 {
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return Num(f)
		}
	}
	return Str(s)
}

// Op is a comparison operator used in query literals.
type Op uint8

const (
	// OpInvalid is the zero Op.
	OpInvalid Op = iota
	// OpLT is <.
	OpLT
	// OpLE is <=.
	OpLE
	// OpEQ is =.
	OpEQ
	// OpGE is >=.
	OpGE
	// OpGT is >.
	OpGT
)

// String returns the operator's source form.
func (op Op) String() string {
	switch op {
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpEQ:
		return "="
	case OpGE:
		return ">="
	case OpGT:
		return ">"
	default:
		return "?"
	}
}

// ParseOp parses the source form of a comparison operator.
func ParseOp(s string) (Op, error) {
	switch s {
	case "<":
		return OpLT, nil
	case "<=", "≤":
		return OpLE, nil
	case "=", "==":
		return OpEQ, nil
	case ">=", "≥":
		return OpGE, nil
	case ">":
		return OpGT, nil
	default:
		return OpInvalid, fmt.Errorf("graph: unknown operator %q", s)
	}
}

// Apply evaluates "left op right" under the total order of Compare.
func (op Op) Apply(left, right Value) bool {
	c := left.Compare(right)
	switch op {
	case OpLT:
		return c < 0
	case OpLE:
		return c <= 0
	case OpEQ:
		return c == 0
	case OpGE:
		return c >= 0
	case OpGT:
		return c > 0
	default:
		return false
	}
}

// Tightens reports whether binding value b to a literal with operator op is
// at least as selective as binding value a: every node satisfying
// "attr op b" also satisfies "attr op a". This is the single-variable
// refinement test of the paper (Section IV, "Refinement").
func (op Op) Tightens(a, b Value) bool {
	c := b.Compare(a)
	switch op {
	case OpGT, OpGE:
		return c >= 0
	case OpLT, OpLE:
		return c <= 0
	case OpEQ:
		return c == 0
	default:
		return false
	}
}
