package phy

import "testing"

func TestBlockConstructors(t *testing.T) {
	d := DataBlock([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	if !d.IsData() || d.IsControl() || d.IsIdle() || d.IsMemory() {
		t.Fatal("data block misclassified")
	}
	s := StartBlock([]byte{0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0xd5})
	if !s.IsControl() || s.Type() != BTStart {
		t.Fatal("start block misclassified")
	}
	e := IdleBlock()
	if !e.IsIdle() {
		t.Fatal("idle block misclassified")
	}
	for _, bt := range []BlockType{BTMemStart, BTMemTerm, BTMemSingle, BTNotify, BTGrant} {
		b := ControlBlock(bt, []byte{0xaa})
		if !b.IsMemory() {
			t.Errorf("%v not classified as memory", b)
		}
		if IsStandardType(bt) {
			t.Errorf("%#x classified standard", bt)
		}
	}
}

func TestEDMTypesAreUnusedCodePoints(t *testing.T) {
	std := map[BlockType]bool{BTIdle: true, BTStart: true}
	for i := 0; i < 8; i++ {
		std[TermType(i)] = true
	}
	for _, bt := range []BlockType{BTMemStart, BTMemTerm, BTMemSingle, BTNotify, BTGrant} {
		if std[bt] {
			t.Errorf("EDM type %#x collides with a standard type", bt)
		}
	}
	// All five EDM types must be distinct.
	seen := map[BlockType]bool{}
	for _, bt := range []BlockType{BTMemStart, BTMemTerm, BTMemSingle, BTNotify, BTGrant} {
		if seen[bt] {
			t.Errorf("duplicate EDM type %#x", bt)
		}
		seen[bt] = true
	}
}

func TestTermTypeRoundTrip(t *testing.T) {
	for n := 0; n <= 7; n++ {
		bt := TermType(n)
		got, ok := TermBytes(bt)
		if !ok || got != n {
			t.Errorf("TermBytes(TermType(%d)) = %d,%v", n, got, ok)
		}
	}
	if _, ok := TermBytes(BTStart); ok {
		t.Error("BTStart classified as terminate")
	}
}

func TestTermTypePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("TermType(8) did not panic")
		}
	}()
	TermType(8)
}

func TestControlPayloadTooLongPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("8-byte control payload did not panic")
		}
	}()
	ControlBlock(BTIdle, make([]byte, 8))
}

func TestBlockString(t *testing.T) {
	cases := []struct {
		b    Block
		want string
	}{
		{IdleBlock(), "/E/"},
		{StartBlock(nil), "/S/"},
		{ControlBlock(BTTerm3, nil), "/T3/"},
		{ControlBlock(BTMemStart, nil), "/MS/"},
		{ControlBlock(BTMemTerm, nil), "/MT/"},
		{ControlBlock(BTMemSingle, nil), "/MST/"},
		{ControlBlock(BTNotify, nil), "/N/"},
		{ControlBlock(BTGrant, nil), "/G/"},
	}
	for _, c := range cases {
		if got := c.b.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}
