// Package dataset provides the synthetic data substrates of the
// reproduction: SynthCUB, a procedurally generated stand-in for
// CUB-200-2011 with the paper's exact attribute topology (α=312 attribute
// group/value combinations over G=28 groups and V=61 unique values), and
// SynthImageNet, a generic classification dataset for phase-I
// pre-training. The substitutions keep what the experiments measure: the
// attribute topology, and therefore the HDC codebook sizes and the
// memory arithmetic, is CUB's exactly.
package dataset

import "fmt"

// GroupKind drives how a group's active value is rendered into the image.
type GroupKind int

// Group kinds: color groups tint their region, pattern groups modulate
// texture, shape-like groups alter spatial structure.
const (
	KindColor GroupKind = iota
	KindPattern
	KindShape
)

// Group is one attribute group (e.g. "crown color") with its value
// vocabulary given as indices into the schema's shared value list.
type Group struct {
	Name   string
	Kind   GroupKind
	Values []int // indices into Schema.Values
}

// Schema is the attribute topology: the list of groups, the shared value
// vocabulary, and the flattened attribute index (one entry per
// group/value combination, the paper's α).
type Schema struct {
	Groups []Group
	Values []string
	// AttrGroup[a] and AttrValue[a] give the group index and value index
	// (into Values) of flattened attribute a ∈ [0, Alpha).
	AttrGroup []int
	AttrValue []int
	// GroupAttrOffset[g] is the first flattened-attribute index of group g;
	// group g covers [offset, offset+len(Groups[g].Values)).
	GroupAttrOffset []int
}

// Alpha returns the total number of group/value combinations (312 for the
// CUB topology).
func (s *Schema) Alpha() int { return len(s.AttrGroup) }

// NumGroups returns G.
func (s *Schema) NumGroups() int { return len(s.Groups) }

// NumValues returns V, the size of the shared value vocabulary.
func (s *Schema) NumValues() int { return len(s.Values) }

// AttrIndex returns the flattened attribute index of value slot vi within
// group g (vi indexes the group's Values list, not the global vocabulary).
func (s *Schema) AttrIndex(g, vi int) int {
	if g < 0 || g >= len(s.Groups) {
		panic(fmt.Sprintf("dataset.Schema.AttrIndex: group %d out of range", g))
	}
	if vi < 0 || vi >= len(s.Groups[g].Values) {
		panic(fmt.Sprintf("dataset.Schema.AttrIndex: value slot %d out of range for group %q",
			vi, s.Groups[g].Name))
	}
	return s.GroupAttrOffset[g] + vi
}

// AttrName renders the flattened attribute a as "group::value", mirroring
// CUB's "has_crown_color::blue" naming.
func (s *Schema) AttrName(a int) string {
	return s.Groups[s.AttrGroup[a]].Name + "::" + s.Values[s.AttrValue[a]]
}

// colorNames is the 15-color vocabulary of CUB.
var colorNames = []string{
	"blue", "brown", "iridescent", "purple", "rufous", "grey", "yellow",
	"olive", "green", "pink", "orange", "black", "white", "red", "buff",
}

// patternNames is the 4-pattern vocabulary of CUB.
var patternNames = []string{"solid", "spotted", "striped", "multi-colored"}

var billShapeNames = []string{
	"curved", "dagger", "hooked", "needle", "hooked-seabird",
	"spatulate", "all-purpose", "cone", "specialized",
}

var tailShapeNames = []string{
	"forked", "rounded", "notched", "fan-shaped", "pointed", "squared",
}

// headPatternNew are the head-pattern values not shared with the generic
// pattern vocabulary ("spotted" and "striped" are shared).
var headPatternNew = []string{
	"crested", "masked", "malar", "unique-pattern", "eyebrow",
	"eyering", "plain", "eyeline", "capped",
}

var billLengthNames = []string{
	"about-the-same-as-head", "longer-than-head", "shorter-than-head",
}

// wingShapeNew are the wing-shape values not shared with the tail-shape
// vocabulary ("rounded" and "pointed" are shared).
var wingShapeNew = []string{"broad", "tapered", "long"}

var sizeNames = []string{"very-small", "small", "medium", "large", "very-large"}

// bodyShapeNew are the body-shape values not shared with other groups.
var bodyShapeNew = []string{
	"duck-like", "perching-like", "gull-like", "hawk-like", "owl-like",
	"swallow-like", "chicken-like",
}

// NewCUBSchema builds the CUB-200 attribute topology. The group structure
// matches the real dataset exactly (28 groups, 312 combinations: fifteen
// 15-value color groups plus a 14-value eye-color group, five 4-value
// pattern groups, bill shape 9, tail shape 6, head pattern 11, bill
// length 3, wing shape 5, size 5, body shape 14). Seven generic
// descriptors are reused inside the body-shape group so that the shared
// value vocabulary has exactly V=61 entries, the count the paper's memory
// arithmetic assumes.
func NewCUBSchema() *Schema {
	s := &Schema{}
	valueIdx := map[string]int{}
	intern := func(name string) int {
		if i, ok := valueIdx[name]; ok {
			return i
		}
		i := len(s.Values)
		s.Values = append(s.Values, name)
		valueIdx[name] = i
		return i
	}
	internAll := func(names []string) []int {
		out := make([]int, len(names))
		for i, n := range names {
			out[i] = intern(n)
		}
		return out
	}

	colorIdx := internAll(colorNames)
	patternIdx := internAll(patternNames)

	addGroup := func(name string, kind GroupKind, values []int) {
		s.Groups = append(s.Groups, Group{Name: name, Kind: kind, Values: values})
	}
	colorGroup := func(name string) { addGroup(name, KindColor, colorIdx) }
	patternGroup := func(name string) { addGroup(name, KindPattern, patternIdx) }

	// Group order follows Table I of the paper.
	addGroup("bill shape", KindShape, internAll(billShapeNames))
	colorGroup("wing color")
	colorGroup("upperpart color")
	colorGroup("underpart color")
	patternGroup("breast pattern")
	colorGroup("back color")
	addGroup("tail shape", KindShape, internAll(tailShapeNames))
	colorGroup("uppertail color")
	// Head pattern: 11 values, 2 shared with the pattern vocabulary.
	headVals := append(internAll(headPatternNew), intern("spotted"), intern("striped"))
	addGroup("head pattern", KindPattern, headVals)
	colorGroup("breast color")
	colorGroup("throat color")
	// Eye color has 14 values in CUB (no "buff").
	addGroup("eye color", KindColor, colorIdx[:14])
	addGroup("bill length", KindShape, internAll(billLengthNames))
	colorGroup("forehead color")
	colorGroup("tail color")
	colorGroup("nape color")
	colorGroup("belly color")
	// Wing shape: 5 values, 2 shared with tail shape.
	wingVals := append(internAll(wingShapeNew), intern("rounded"), intern("pointed"))
	addGroup("wing shape", KindShape, wingVals)
	addGroup("size", KindShape, internAll(sizeNames))
	// Body shape: 14 values, 7 new + 7 reused generic descriptors.
	bodyVals := append(internAll(bodyShapeNew),
		intern("long"), intern("broad"), intern("tapered"),
		intern("plain"), intern("capped"), intern("masked"), intern("crested"))
	addGroup("shape", KindShape, bodyVals)
	patternGroup("back pattern")
	patternGroup("tail pattern")
	patternGroup("belly pattern")
	colorGroup("primary color")
	colorGroup("leg color")
	colorGroup("bill color")
	colorGroup("crown color")
	patternGroup("wing pattern")

	// Flatten the attribute index.
	for g, grp := range s.Groups {
		s.GroupAttrOffset = append(s.GroupAttrOffset, len(s.AttrGroup))
		for _, v := range grp.Values {
			s.AttrGroup = append(s.AttrGroup, g)
			s.AttrValue = append(s.AttrValue, v)
		}
	}
	return s
}
