package engine

import (
	"errors"
	"testing"
)

// TestCheckStopsRun asserts an installed check can stop Run mid-drain, with
// the queue left intact and the error reported through StopErr.
func TestCheckStopsRun(t *testing.T) {
	s := New()
	for i := Cycle(0); i < 100; i++ {
		schedAt(s, i, func() {})
	}
	stop := errors.New("budget")
	s.SetCheck(10, func() error {
		if s.Processed() >= 50 {
			return stop
		}
		return nil
	})
	s.Run()
	if !errors.Is(s.StopErr(), stop) {
		t.Fatalf("StopErr = %v, want the check's error", s.StopErr())
	}
	if s.Pending() == 0 {
		t.Fatal("stopped run drained the queue")
	}
	if s.Processed() < 50 || s.Processed() > 60 {
		t.Fatalf("stopped after %d events, want 50..60 (check interval 10)", s.Processed())
	}
}

// TestCheckInterval asserts the check runs once per interval dispatches, not
// per event.
func TestCheckInterval(t *testing.T) {
	s := New()
	for i := Cycle(0); i < 100; i++ {
		schedAt(s, i, func() {})
	}
	calls := 0
	s.SetCheck(25, func() error { calls++; return nil })
	s.Run()
	if calls != 4 {
		t.Fatalf("check ran %d times over 100 events at interval 25, want 4", calls)
	}
	if s.StopErr() != nil {
		t.Fatalf("untripped check set StopErr: %v", s.StopErr())
	}
}

// TestCheckRemovable asserts SetCheck(0, ...) restores the unchecked path
// and clears stale stop state.
func TestCheckRemovable(t *testing.T) {
	s := New()
	schedAt(s, 0, func() {})
	s.SetCheck(1, func() error { return errors.New("always") })
	s.Run()
	if s.StopErr() == nil {
		t.Fatal("check did not stop the run")
	}
	s.SetCheck(0, nil)
	if s.StopErr() != nil {
		t.Fatal("removing the check kept a stale StopErr")
	}
	schedAt(s, 1, func() {})
	if s.Run() != 1 {
		t.Fatal("unchecked run after removal did not drain")
	}
}

// TestCheckHonoredByRunUntil asserts RunUntil consults the check too.
func TestCheckHonoredByRunUntil(t *testing.T) {
	s := New()
	for i := Cycle(0); i < 100; i++ {
		schedAt(s, i, func() {})
	}
	stop := errors.New("budget")
	s.SetCheck(1, func() error {
		if s.Processed() >= 10 {
			return stop
		}
		return nil
	})
	s.RunUntil(1000)
	if !errors.Is(s.StopErr(), stop) {
		t.Fatalf("RunUntil ignored the check: StopErr = %v", s.StopErr())
	}
	if s.Processed() > 20 {
		t.Fatalf("RunUntil processed %d events past the stop", s.Processed())
	}
}

// TestCheckedRunMatchesUnchecked asserts an installed-but-untripped check
// leaves the run's observable outcome identical to an unchecked run.
func TestCheckedRunMatchesUnchecked(t *testing.T) {
	trace := func(check bool) []Cycle {
		s := New()
		var got []Cycle
		for i := Cycle(0); i < 50; i++ {
			i := i
			schedAt(s, i*3, func() {
				got = append(got, s.Now())
				if i%7 == 0 {
					schedAfter(s, 2, func() { got = append(got, s.Now()) })
				}
			})
		}
		if check {
			s.SetCheck(1, func() error { return nil })
		}
		s.Run()
		return got
	}
	a, b := trace(false), trace(true)
	if len(a) != len(b) {
		t.Fatalf("checked run dispatched %d events, unchecked %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d at cycle %d (unchecked) vs %d (checked)", i, a[i], b[i])
		}
	}
}

// TestAuditStopsRun asserts the audit hook can stop Run exactly as the
// budget check can, with the error surfaced through StopErr.
func TestAuditStopsRun(t *testing.T) {
	s := New()
	for i := Cycle(0); i < 100; i++ {
		schedAt(s, i, func() {})
	}
	stop := errors.New("violation")
	s.SetAudit(10, func() error {
		if s.Processed() >= 50 {
			return stop
		}
		return nil
	})
	s.Run()
	if !errors.Is(s.StopErr(), stop) {
		t.Fatalf("StopErr = %v, want the audit's error", s.StopErr())
	}
	if s.Pending() == 0 {
		t.Fatal("stopped run drained the queue")
	}
}

// TestAuditIntervalIndependentOfCheck asserts both hooks run at their own
// intervals when installed together.
func TestAuditIntervalIndependentOfCheck(t *testing.T) {
	s := New()
	for i := Cycle(0); i < 100; i++ {
		schedAt(s, i, func() {})
	}
	checks, audits := 0, 0
	s.SetCheck(10, func() error { checks++; return nil })
	s.SetAudit(25, func() error { audits++; return nil })
	s.Run()
	if checks != 10 || audits != 4 {
		t.Fatalf("over 100 events: %d checks (want 10), %d audits (want 4)", checks, audits)
	}
	if s.StopErr() != nil {
		t.Fatalf("untripped hooks set StopErr: %v", s.StopErr())
	}
}

// TestAuditRemovable asserts SetAudit(0, nil) restores the unhooked path.
func TestAuditRemovable(t *testing.T) {
	s := New()
	schedAt(s, 0, func() {})
	s.SetAudit(1, func() error { return errors.New("always") })
	s.Run()
	if s.StopErr() == nil {
		t.Fatal("audit did not stop the run")
	}
	s.SetAudit(0, nil)
	if s.StopErr() != nil {
		t.Fatal("removing the audit kept a stale StopErr")
	}
	schedAt(s, 1, func() {})
	if s.Run() != 1 {
		t.Fatal("unhooked run after removal did not drain")
	}
}

// TestCheckPrecedesAudit asserts that when both hooks would trip on the same
// event, the budget check's error wins — corrupted runs report the
// established budget failure, not whichever invariant the corruption hit.
func TestCheckPrecedesAudit(t *testing.T) {
	s := New()
	for i := Cycle(0); i < 10; i++ {
		schedAt(s, i, func() {})
	}
	budget := errors.New("budget")
	s.SetCheck(1, func() error { return budget })
	s.SetAudit(1, func() error { return errors.New("violation") })
	s.Run()
	if !errors.Is(s.StopErr(), budget) {
		t.Fatalf("StopErr = %v, want the check's budget error", s.StopErr())
	}
}

// TestAuditHonoredByRunUntil asserts RunUntil consults the audit hook too.
func TestAuditHonoredByRunUntil(t *testing.T) {
	s := New()
	for i := Cycle(0); i < 100; i++ {
		schedAt(s, i, func() {})
	}
	stop := errors.New("violation")
	s.SetAudit(1, func() error {
		if s.Processed() >= 10 {
			return stop
		}
		return nil
	})
	s.RunUntil(1000)
	if !errors.Is(s.StopErr(), stop) {
		t.Fatalf("RunUntil ignored the audit: StopErr = %v", s.StopErr())
	}
}
