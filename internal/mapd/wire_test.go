package mapd

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestScanRequestTakesCanonicalLines: the lines clients actually send go
// through the scanner; anything json.Unmarshal would treat differently from
// a plain copy does not.
func TestScanRequestTakesCanonicalLines(t *testing.T) {
	for line, want := range map[string]bool{
		`{"op":"ping"}`: true,
		`{"op":"route","from":"n3.h1","to":"n0.h2"}`:              true,
		`{"to":"b","spec":"seed=5,cuts=2","op":"","from":"a<&>"}`: true,
		`{}`:                        false,
		`{"op":"ping"} `:            false,
		`{"op": "ping"}`:            false,
		`{"OP":"ping"}`:             false,
		`{"op":"ping","op":"ping"}`: false,
		`{"op":"ping","x":"y"}`:     false,
		`{"op":"pi\ng"}`:            false,
		`{"op":"é"}`:                false,
		"{\"op\":\"del\x7f\"}":      false,
		`{"op":7}`:                  false,
		`{"op":"ping",}`:            false,
		`{"op":"ping"`:              false,
		`{"op":"ping"}}`:            false,
		`{"op"`:                     false,
		`{"`:                        false,
		`{`:                         false,
		``:                          false,
	} {
		if _, ok := scanRequest([]byte(line)); ok != want {
			t.Errorf("scanRequest(%q) ok = %v, want %v", line, ok, want)
		}
	}
}

// FuzzDecodeRequest: whichever road a line takes, scanner or fallback, the
// decoded request and the error text are json.Unmarshal's.
func FuzzDecodeRequest(f *testing.F) {
	for _, seed := range []string{
		`{"op":"ping"}`, `{"op":"route","from":"h0","to":"h1"}`, `{"spec":"seed=5,cuts=2","op":"inject"}`,
		`{}`, `{"op":"ping","op":"epoch"}`, `{"OP":"ping"}`, `{"op":"a\"b"}`, `{"op":"é"}`,
		"{\"op\":\"\xff\"}", `{"op":5}`, `{"op":"stop","to":[1]}`, `{"op":"ping"}x`, ` {"op" : "ping"} `,
		`{"op":"ping",}`, `{"op":null}`, `[]`, `nul`, `{"op":"ping","from":"","to":"","spec":""}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var want wireRequest
		wantErr := json.Unmarshal(line, &want)
		got, err := decodeRequest(line)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%q: error %v, json.Unmarshal says %v", line, err, wantErr)
		}
		if string(got.Op) != want.Op || string(got.From) != want.From ||
			string(got.To) != want.To || string(got.Spec) != want.Spec {
			t.Fatalf("%q: decoded %q, json.Unmarshal says %q", line, got, want)
		}
	})
}

// FuzzAppendString: the escaper is encoding/json's, for strings and for the
// same bytes as a slice.
func FuzzAppendString(f *testing.F) {
	for _, seed := range []string{
		"", "n3.h1", `q"uote\`, "<&>", "héllo", "\xff", "a\xc3", "\xe2\x80", "\u2028\u2029", "\x00\x1f\x7f\b\f\n\r\t", "ε",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString([]byte("x"), s); !bytes.Equal(got[1:], want) {
			t.Fatalf("%q: got %s want %s", s, got[1:], want)
		}
		if got := appendString(nil, []byte(s)); !bytes.Equal(got, want) {
			t.Fatalf("%q as bytes: got %s want %s", s, got, want)
		}
	})
}
