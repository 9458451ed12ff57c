package vision

import (
	"errors"
	"testing"
)

func TestFeatureSerializationRoundTrip(t *testing.T) {
	f := testScene(31)
	feats := Describe(f, DetectFAST(f, 20, 50))
	if len(feats) == 0 {
		t.Fatal("no features")
	}
	buf := EncodeFeatures(nil, feats)
	if len(buf) != len(feats)*FeatureWireBytes {
		t.Fatalf("encoded %d bytes, want %d", len(buf), len(feats)*FeatureWireBytes)
	}
	got, err := DecodeFeatures(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(feats) {
		t.Fatalf("decoded %d features", len(got))
	}
	for i := range feats {
		if got[i].Kp != feats[i].Kp || got[i].Desc != feats[i].Desc {
			t.Fatalf("feature %d mismatch", i)
		}
	}
}

func TestDecodeFeaturesErrors(t *testing.T) {
	if _, err := DecodeFeatures(make([]byte, FeatureWireBytes+1)); !errors.Is(err, ErrBadFeatureBuf) {
		t.Errorf("err = %v, want ErrBadFeatureBuf", err)
	}
	got, err := DecodeFeatures(nil)
	if err != nil || len(got) != 0 {
		t.Error("empty buffer should decode to zero features")
	}
}

func TestEncodeFeaturesAppend(t *testing.T) {
	prefix := []byte{1, 2, 3}
	out := EncodeFeatures(prefix, []Feature{{Kp: Keypoint{X: 9, Y: 8, Score: 7}}})
	if len(out) != 3+FeatureWireBytes {
		t.Fatalf("len = %d", len(out))
	}
	if out[0] != 1 || out[1] != 2 || out[2] != 3 {
		t.Error("prefix clobbered")
	}
}

// Decoded features match as well as originals (the descriptor survives).
func TestSerializedFeaturesStillMatch(t *testing.T) {
	f := testScene(32)
	feats := Describe(f, DetectFAST(f, 20, 100))
	wire := EncodeFeatures(nil, feats)
	decoded, err := DecodeFeatures(wire)
	if err != nil {
		t.Fatal(err)
	}
	matches := MatchFeatures(decoded, feats, 10, 0)
	if len(matches) < len(feats)*9/10 {
		t.Fatalf("only %d/%d self-matches after round trip", len(matches), len(feats))
	}
	for _, m := range matches {
		if d := Hamming(decoded[m.I].Desc, feats[m.J].Desc); d != 0 {
			t.Fatalf("nonzero distance %d after round trip", d)
		}
	}
}
