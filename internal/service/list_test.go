package service_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"avfs/api"
	"avfs/internal/service"
)

// TestListPagination pins the cursor contract: stable ID order, pages
// chain through next_cursor without duplicates or gaps, filters
// compose with the cursor, and bad parameters are invalid_request.
func TestListPagination(t *testing.T) {
	f := service.New(service.Config{ReapEvery: -1})
	defer f.Close()
	ctx := context.Background()

	var busyID string
	for i := 0; i < 7; i++ {
		policy := "baseline"
		if i%2 == 1 {
			policy = "optimal"
		}
		s, err := f.Create(api.CreateSessionRequest{Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			busyID = s.ID
		}
	}
	if _, err := f.Submit(busyID, api.SubmitRequest{Benchmark: "CG", Threads: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.RunSync(ctx, busyID, api.RunRequest{Seconds: 1}); err != nil {
		t.Fatal(err)
	}

	// Page through everything 3 at a time.
	var all []string
	cursor := ""
	for {
		page, err := f.ListPage(cursor, 3, "", "")
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Sessions) > 3 {
			t.Fatalf("page of %d exceeds limit 3", len(page.Sessions))
		}
		for _, s := range page.Sessions {
			if len(all) > 0 && all[len(all)-1] >= s.ID {
				t.Fatalf("IDs out of order: %s then %s", all[len(all)-1], s.ID)
			}
			all = append(all, s.ID)
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(all) != 7 {
		t.Fatalf("paged %d sessions, want 7", len(all))
	}

	// Filters: policy narrows, state narrows, both compose with limits.
	byPolicy, err := f.ListPage("", 0, "", "optimal")
	if err != nil {
		t.Fatal(err)
	}
	if len(byPolicy.Sessions) != 3 {
		t.Fatalf("policy filter returned %d, want 3", len(byPolicy.Sessions))
	}
	for _, s := range byPolicy.Sessions {
		if s.Policy != "optimal" {
			t.Fatalf("policy filter leaked %+v", s)
		}
	}
	idle, err := f.ListPage("", 0, api.SessionIdle, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(idle.Sessions) != 7 {
		t.Fatalf("idle filter returned %d, want 7 (runs are synchronous)", len(idle.Sessions))
	}

	// The zero-options page answers everything.
	whole, err := f.ListPage("", 0, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(whole.Sessions) != 7 || whole.NextCursor != "" {
		t.Fatalf("unpaginated ListPage: %d sessions, cursor %q", len(whole.Sessions), whole.NextCursor)
	}

	// Bad parameters refuse.
	if _, err := f.ListPage("", -1, "", ""); !errors.Is(err, service.ErrInvalidRequest) {
		t.Fatalf("negative limit error = %v", err)
	}
	if _, err := f.ListPage("", 0, "zombie", ""); !errors.Is(err, service.ErrInvalidRequest) {
		t.Fatalf("bad state error = %v", err)
	}
	if _, err := f.ListPage("", 0, "", "not-a-policy"); err == nil {
		t.Fatalf("bad policy filter accepted")
	}
}

// TestListPaginationHTTP drives the same contract over the wire,
// including query-parameter validation.
func TestListPaginationHTTP(t *testing.T) {
	f := service.New(service.Config{ReapEvery: -1})
	ts := httptest.NewServer(f.Handler())
	defer func() { ts.Close(); f.Close() }()

	for i := 0; i < 5; i++ {
		if _, err := f.Create(api.CreateSessionRequest{}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/sessions?limit=2")
	if err != nil {
		t.Fatal(err)
	}
	var page api.SessionList
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(page.Sessions) != 2 || page.NextCursor == "" {
		t.Fatalf("limit=2 page: %d sessions, cursor %q", len(page.Sessions), page.NextCursor)
	}

	resp, err = http.Get(ts.URL + "/v1/sessions?limit=banana")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("limit=banana: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestClosedFleetFailsFast pins the liveness bugfix: after Close, every
// route — /healthz included — answers 503 code "closed" instead of the
// old always-200 that kept orchestrators routing to a dead process.
func TestClosedFleetFailsFast(t *testing.T) {
	f := service.New(service.Config{ReapEvery: -1})
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before close: HTTP %d", resp.StatusCode)
	}

	f.Close()
	for _, path := range []string{"/healthz", "/readyz", "/v1/sessions", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var e api.Error
		body := json.NewDecoder(resp.Body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s after close: HTTP %d, want 503", path, resp.StatusCode)
		}
		if err := body.Decode(&e); err != nil || e.Code != api.CodeClosed {
			t.Fatalf("%s after close: code %q (%v), want %q", path, e.Code, err, api.CodeClosed)
		}
		resp.Body.Close()
	}
}

// TestWrongNodeRedirect pins the 307 contract: a node asked about a
// session it doesn't host answers 307 to the router for direct
// clients, but answers 404 in place for router-proxied requests (the
// router must probe, not loop).
func TestWrongNodeRedirect(t *testing.T) {
	f := service.New(service.Config{NodeName: "n1", ReapEvery: -1})
	ts := httptest.NewServer(f.Handler())
	defer func() { ts.Close(); f.Close() }()
	f.SetRedirect("http://router.example")

	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := noFollow.Get(ts.URL + "/v1/sessions/s-elsewhere")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("direct wrong-node read: HTTP %d, want 307", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	if !strings.HasPrefix(loc, "http://router.example/v1/sessions/s-elsewhere") {
		t.Fatalf("redirect location %q", loc)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/sessions/s-elsewhere", nil)
	req.Header.Set("X-AVFS-Proxied", "router")
	resp, err = noFollow.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("proxied wrong-node read: HTTP %d, want 404", resp.StatusCode)
	}
	var e api.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Code != api.CodeSessionNotFound {
		t.Fatalf("proxied wrong-node code %q (%v)", e.Code, err)
	}
}
