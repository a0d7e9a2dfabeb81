package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/evstore"
)

// TestErrStatus pins the error → HTTP status mapping to error identity:
// everything spec validation rejects is the client's to fix (400), an
// empty store is "not ready" (503), a cancelled request is the client's
// own timeout, and anything else — whatever its text says — is a 500.
func TestErrStatus(t *testing.T) {
	of := func(_ any, err error) error { return err }
	live := httptest.NewRequest("GET", "/v1/table2", nil)
	gone, cancel := context.WithCancel(context.Background())
	cancel()

	for _, tc := range []struct {
		name string
		req  *http.Request
		err  error
		want int
	}{
		{"figure3 missing params", live, of(stateAnalyzers(QuerySpec{Kind: KindFigure3})), 400},
		{"figure4 missing params", live, of(stateAnalyzers(QuerySpec{Kind: KindFigure4})), 400},
		{"figure2 as one state", live, of(stateAnalyzers(QuerySpec{Kind: KindFigure2})), 400},
		{"unknown kind", live, of(stateAnalyzers(QuerySpec{Kind: "table9"})), 400},
		{"figure2 without years", live, of((&Server{}).figure2(context.Background(), QuerySpec{Kind: KindFigure2})), 400},
		{"figure2 range too large", live, of((&Server{}).figure2(context.Background(), QuerySpec{Kind: KindFigure2, FromYear: 1000, ToYear: 3000})), 400},
		{"wire spec bad magic", live, of(DecodeQuerySpec([]byte("junk"))), 400},
		{"wire spec trailing bytes", live, of(DecodeQuerySpec(append(AppendQuerySpec(nil, QuerySpec{Kind: KindTable2}), 0))), 400},
		{"empty store", live, mapEmptyStore(fmt.Errorf("%w in /tmp/x", evstore.ErrNoPartitions)), 503},
		{"backend text says needs", live, errors.New("serve: shard s1: disk needs replacing"), 500},
		{"backend text says no partitions", live, errors.New("serve: shard s1: no partitions decoded"), 500},
		{"client went away", live.WithContext(gone), fmt.Errorf("scan: %w", context.Canceled), http.StatusRequestTimeout},
	} {
		if tc.err == nil {
			t.Errorf("%s: no error produced", tc.name)
			continue
		}
		if got := errStatus(tc.req, tc.err); got != tc.want {
			t.Errorf("%s: %v → status %d, want %d", tc.name, tc.err, got, tc.want)
		}
	}
}
