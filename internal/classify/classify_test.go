package classify

import (
	"net/netip"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/bgp"
)

var (
	beacon = netip.MustParsePrefix("84.205.64.0/24")
	peer   = netip.MustParseAddr("203.0.113.5")
	t0     = time.Date(2020, 3, 15, 0, 0, 0, 0, time.UTC)
)

// parsePath parses a space-separated AS_SEQUENCE such as "20205 3356".
func parsePath(s string) bgp.ASPath {
	var asns []uint32
	for _, tok := range strings.Fields(s) {
		v, err := strconv.ParseUint(tok, 10, 32)
		if err != nil {
			panic(err)
		}
		asns = append(asns, uint32(v))
	}
	return bgp.NewASPath(asns...)
}

func ev(path string, comms ...bgp.Community) Event {
	p := parsePath(path)
	return Event{
		Time:        t0,
		Collector:   "rrc00",
		PeerAS:      20205,
		PeerAddr:    peer,
		Prefix:      beacon,
		ASPath:      p,
		Communities: bgp.Communities(comms).Canonical(),
	}
}

func withdraw() Event {
	e := ev("")
	e.Withdraw = true
	e.ASPath = nil
	return e
}

func classifySeq(t *testing.T, events ...Event) []Result {
	t.Helper()
	c := New()
	var out []Result
	for _, e := range events {
		res, ok := c.Observe(e)
		if ok {
			out = append(out, res)
		}
	}
	return out
}

func TestFirstAnnouncement(t *testing.T) {
	res := classifySeq(t, ev("20205 3356 174 12654", bgp.NewCommunity(3356, 901)))
	if len(res) != 1 || !res[0].First || res[0].Type != PC {
		t.Errorf("first with communities: %+v", res)
	}
	res = classifySeq(t, ev("20205 3356 174 12654"))
	if len(res) != 1 || !res[0].First || res[0].Type != PN {
		t.Errorf("first without communities: %+v", res)
	}
}

func TestTypeMatrix(t *testing.T) {
	base := ev("20205 3356 174 12654", bgp.NewCommunity(3356, 901))
	cases := []struct {
		name string
		next Event
		want Type
	}{
		{"pc", ev("20205 6939 50304 12654", bgp.NewCommunity(6939, 1)), PC},
		{"pn", ev("20205 6939 50304 12654", bgp.NewCommunity(3356, 901)), PN},
		{"nc", ev("20205 3356 174 12654", bgp.NewCommunity(3356, 902)), NC},
		{"nn", ev("20205 3356 174 12654", bgp.NewCommunity(3356, 901)), NN},
		{"xc", ev("20205 3356 3356 174 12654", bgp.NewCommunity(3356, 902)), XC},
		{"xn", ev("20205 3356 3356 174 12654", bgp.NewCommunity(3356, 901)), XN},
	}
	for _, tc := range cases {
		res := classifySeq(t, base, tc.next)
		if len(res) != 2 {
			t.Fatalf("%s: %d results", tc.name, len(res))
		}
		if res[1].Type != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, res[1].Type, tc.want)
		}
		if res[1].First {
			t.Errorf("%s: second announcement marked First", tc.name)
		}
	}
}

func TestCommunityGoneIsNC(t *testing.T) {
	res := classifySeq(t,
		ev("20205 3356 12654", bgp.NewCommunity(3356, 901)),
		ev("20205 3356 12654"),
	)
	if res[1].Type != NC {
		t.Errorf("losing all communities: %v, want nc", res[1].Type)
	}
}

func TestEmptyToEmptyIsNN(t *testing.T) {
	// §5: "nn announcements also include two empty community attributes in
	// succession."
	res := classifySeq(t,
		ev("20205 3356 12654"),
		ev("20205 3356 12654"),
	)
	if res[1].Type != NN {
		t.Errorf("empty→empty: %v, want nn", res[1].Type)
	}
}

func TestWithdrawalResetsStream(t *testing.T) {
	c := New()
	c.Observe(ev("20205 3356 12654", bgp.NewCommunity(3356, 901)))
	if _, ok := c.Observe(withdraw()); ok {
		t.Fatal("withdrawal classified as announcement")
	}
	res, ok := c.Observe(ev("20205 3356 12654", bgp.NewCommunity(3356, 901)))
	if !ok || !res.First || res.Type != PC {
		t.Errorf("after withdrawal: %+v (must restart stream with pc)", res)
	}
}

func TestPrependRemovalIsAlsoX(t *testing.T) {
	res := classifySeq(t,
		ev("20205 3356 3356 12654"),
		ev("20205 3356 12654"),
	)
	if res[1].Type != XN {
		t.Errorf("prepend removal: %v, want xn", res[1].Type)
	}
}

func TestMEDChangeAnnotation(t *testing.T) {
	a := ev("20205 3356 12654")
	a.HasMED, a.MED = true, 10
	b := ev("20205 3356 12654")
	b.HasMED, b.MED = true, 20
	res := classifySeq(t, a, b)
	if res[1].Type != NN || !res[1].MEDChanged {
		t.Errorf("MED change: %+v", res[1])
	}
	// Same MED: no annotation.
	res = classifySeq(t, a, a)
	if res[1].Type != NN || res[1].MEDChanged {
		t.Errorf("same MED: %+v", res[1])
	}
}

func TestStreamsAreIndependent(t *testing.T) {
	c := New()
	e1 := ev("20205 3356 12654", bgp.NewCommunity(3356, 901))
	e2 := ev("20205 3356 12654", bgp.NewCommunity(3356, 901))
	e2.Prefix = netip.MustParsePrefix("84.205.65.0/24")
	e3 := ev("20205 3356 12654", bgp.NewCommunity(3356, 901))
	e3.PeerAddr = netip.MustParseAddr("203.0.113.9")
	e4 := ev("20205 3356 12654", bgp.NewCommunity(3356, 901))
	e4.Collector = "rrc01"
	for i, e := range []Event{e1, e2, e3, e4} {
		res, ok := c.Observe(e)
		if !ok || !res.First {
			t.Errorf("event %d should start its own stream: %+v", i, res)
		}
	}
	if c.Streams() != 4 {
		t.Errorf("Streams() = %d", c.Streams())
	}
}

func TestCommunityExplorationSequence(t *testing.T) {
	// The Figure 4 pattern: during each withdrawal phase the backup route
	// appears with rotating geo communities: pc, nc, nc, then a withdrawal;
	// repeated per phase.
	var evs []Event
	for phase := 0; phase < 6; phase++ {
		evs = append(evs,
			ev("20205 3356 174 12654", bgp.NewCommunity(3356, 501)),
			ev("20205 3356 174 12654", bgp.NewCommunity(3356, 502)),
			ev("20205 3356 174 12654", bgp.NewCommunity(3356, 503)),
			withdraw())
	}
	var a CountsAnalyzer
	RunAll(slices.Values(evs), nil, &a)
	counts := a.Counts
	if got := counts.Of(PC); got != 6 {
		t.Errorf("pc = %d, want 6 (one per phase)", got)
	}
	if got := counts.Of(NC); got != 12 {
		t.Errorf("nc = %d, want 12", got)
	}
	if counts.Withdrawals != 6 {
		t.Errorf("withdrawals = %d", counts.Withdrawals)
	}
	if counts.Announcements() != 18 {
		t.Errorf("announcements = %d", counts.Announcements())
	}
}

func TestCountsShares(t *testing.T) {
	var c Counts
	c.Add(Result{Type: PC})
	c.Add(Result{Type: NC})
	c.Add(Result{Type: NN})
	c.Add(Result{Type: NN})
	if c.Share(NN) != 0.5 {
		t.Errorf("Share(nn) = %f", c.Share(NN))
	}
	if c.NoPathChangeShare() != 0.75 {
		t.Errorf("NoPathChangeShare() = %f", c.NoPathChangeShare())
	}
	var empty Counts
	if empty.Share(PC) != 0 {
		t.Error("empty share should be 0")
	}
}

func TestCountsMerge(t *testing.T) {
	var a, b Counts
	a.Add(Result{Type: PC})
	a.Withdrawals = 2
	b.Add(Result{Type: NN, MEDChanged: true})
	b.Withdrawals = 3
	a.Merge(b)
	if a.Of(PC) != 1 || a.Of(NN) != 1 || a.Withdrawals != 5 || a.MEDOnlyNN != 1 {
		t.Errorf("merge: %+v", a)
	}
}

func TestTypeStrings(t *testing.T) {
	want := map[Type]string{PC: "pc", PN: "pn", NC: "nc", NN: "nn", XC: "xc", XN: "xn"}
	for typ, s := range want {
		if typ.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(typ), typ.String(), s)
		}
	}
	if Type(99).String() != "type(99)" {
		t.Error("unknown type string")
	}
	if len(Types()) != 6 {
		t.Error("Types() length")
	}
	if !NC.NoPathChange() || !NN.NoPathChange() || PC.NoPathChange() || XN.NoPathChange() {
		t.Error("NoPathChange misassigned")
	}
}

func TestCommunityOrderIrrelevant(t *testing.T) {
	// Events carry canonical community sets; the same set in a different
	// arrival order must be nn, not nc.
	a := ev("20205 3356 12654", bgp.NewCommunity(3356, 901), bgp.NewCommunity(3356, 2))
	b := ev("20205 3356 12654", bgp.NewCommunity(3356, 2), bgp.NewCommunity(3356, 901))
	res := classifySeq(t, a, b)
	if res[1].Type != NN {
		t.Errorf("reordered communities: %v, want nn", res[1].Type)
	}
}
