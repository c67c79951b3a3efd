package tcpkit

import "testing"

var (
	testSrc = [4]byte{192, 168, 0, 1}
	testDst = [4]byte{10, 0, 0, 1}
)

func TestFlagsString(t *testing.T) {
	if got := (FlagSYN | FlagACK).String(); got != "SYN|ACK" {
		t.Errorf("String = %q", got)
	}
	if got := Flags(0).String(); got != "none" {
		t.Errorf("String(0) = %q", got)
	}
}

func TestSegmentWireSizeAndFlow(t *testing.T) {
	s := Segment{
		Src: testSrc, Dst: testDst, SrcPort: 7, DstPort: 8,
		Seq: 99, Options: make([]byte, 12), PayloadLen: 100,
	}
	if got := s.WireSize(); got != 20+20+12+100 {
		t.Errorf("WireSize = %d", got)
	}
	f := s.Flow()
	if f.SrcIP != testSrc || f.DstIP != testDst || f.SrcPort != 7 || f.DstPort != 8 || f.ISN != 99 {
		t.Errorf("Flow = %+v", f)
	}
}

func TestISNSourceDeterministic(t *testing.T) {
	a, b := NewISNSource(1), NewISNSource(1)
	for i := 0; i < 10; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewISNSource(2)
	same := true
	a2 := NewISNSource(1)
	for i := 0; i < 10; i++ {
		if a2.Next() != c.Next() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}
