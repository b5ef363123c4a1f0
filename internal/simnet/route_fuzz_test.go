package simnet

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// turnToken matches one signed or bare run of digits, the unit ParseRoute
// reads a turn from.
var turnToken = regexp.MustCompile(`[+-]?[0-9]+`)

// FuzzParseRoute: the route-string parser never panics, accepts no turn
// beyond ±maxParseTurn, and whatever it accepts survives a String round
// trip with AppendText agreeing with String.
func FuzzParseRoute(f *testing.F) {
	for _, s := range []string{
		"", "ε", " +1 ", "+1-3+2", "0", "+0", "+8-100", "+127-127", "+7-7+0",
		"x", "+128", "-128", "-130", "1+2", "+", "+1garbage", "+99999999999999999999",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		r, err := ParseRoute(s)
		for _, tok := range turnToken.FindAllString(strings.TrimSpace(s), -1) {
			v, convErr := strconv.Atoi(tok)
			if (convErr != nil || v < -maxParseTurn || v > maxParseTurn) && err == nil {
				t.Fatalf("ParseRoute(%q) accepted out-of-range turn %s as %v", s, tok, r)
			}
		}
		if err != nil {
			return
		}
		text := r.String()
		if want := string(r.AppendText(nil)); text != want && !(len(r) == 0 && text == "ε" && want == "") {
			t.Fatalf("String %q disagrees with AppendText %q for %v", text, want, r)
		}
		back, err := ParseRoute(text)
		if err != nil || !back.Equal(r) {
			t.Fatalf("round trip %q -> %v -> %q -> %v (%v)", s, r, text, back, err)
		}
	})
}
