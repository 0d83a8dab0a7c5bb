package txn

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestLockBasics(t *testing.T) {
	lm := NewLockManager(Detect)
	lm.Register(1)
	lm.Register(2)
	if err := lm.Acquire(1, "x", S); err != nil {
		t.Fatal(err)
	}
	// Shared locks coexist.
	if err := lm.Acquire(2, "x", S); err != nil {
		t.Fatal(err)
	}
	if m, ok := lm.HoldsLock(1, "x"); !ok || m != S {
		t.Errorf("T1 lock = %v,%v", m, ok)
	}
	lm.ReleaseAll(2)
	// Upgrade S -> X once alone.
	if err := lm.Acquire(1, "x", X); err != nil {
		t.Fatal(err)
	}
	if m, _ := lm.HoldsLock(1, "x"); m != X {
		t.Errorf("upgrade failed, mode = %v", m)
	}
	lm.ReleaseAll(1)
	if _, ok := lm.HoldsLock(1, "x"); ok {
		t.Error("lock survived ReleaseAll")
	}
}

func TestUnregisteredAcquireFails(t *testing.T) {
	lm := NewLockManager(Detect)
	if err := lm.Acquire(9, "x", S); err == nil {
		t.Error("unregistered transaction acquired a lock")
	}
}

func TestDeadlockDetectionResolves(t *testing.T) {
	lm := NewLockManager(Detect)
	lm.Register(1)
	lm.Register(2)
	if err := lm.Acquire(1, "a", X); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(2, "b", X); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	// A victim keeps its locks until it releases them itself (strict
	// 2PL), so each side does what a transaction does on ErrAborted.
	acquire := func(i, txn int, key string) {
		defer wg.Done()
		if errs[i] = lm.Acquire(txn, key, X); errs[i] == ErrAborted {
			lm.ReleaseAll(txn)
		}
	}
	go acquire(0, 1, "b")
	go acquire(1, 2, "a")
	wg.Wait()
	aborted := 0
	for _, err := range errs {
		if err == ErrAborted {
			aborted++
		} else if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if aborted != 1 {
		t.Errorf("aborted = %d, want exactly 1 victim", aborted)
	}
	if lm.Deadlocks == 0 {
		t.Error("deadlock counter not incremented")
	}
	lm.ReleaseAll(1)
	lm.ReleaseAll(2)
}

func TestStrategyAndModeStrings(t *testing.T) {
	if Detect.String() != "detect" || WoundWait.String() != "wound-wait" ||
		WaitDie.String() != "wait-die" || Strategy(9).String() != "unknown" {
		t.Error("Strategy.String mismatch")
	}
	if S.String() != "S" || X.String() != "X" {
		t.Error("Mode.String mismatch")
	}
	if OpRead.String() != "r" || OpWrite.String() != "w" ||
		OpCommit.String() != "c" || OpAbort.String() != "a" || OpType(9).String() != "?" {
		t.Error("OpType.String mismatch")
	}
	op := HistOp{Txn: 1, Op: OpWrite, Key: "x"}
	if op.String() != "w1[x]" {
		t.Errorf("HistOp.String = %q", op.String())
	}
	if (HistOp{Txn: 2, Op: OpCommit}).String() != "c2" {
		t.Error("commit op format wrong")
	}
}

func TestWaitDieYoungerDies(t *testing.T) {
	lm := NewLockManager(WaitDie)
	lm.Register(1) // older
	lm.Register(2) // younger
	if err := lm.Acquire(1, "x", X); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(2, "x", X); err != ErrAborted {
		t.Errorf("younger requester should die, got %v", err)
	}
	if lm.Deaths != 1 {
		t.Errorf("Deaths = %d, want 1", lm.Deaths)
	}
}

func TestWoundWaitOlderWounds(t *testing.T) {
	lm := NewLockManager(WoundWait)
	lm.Register(1) // older
	lm.Register(2) // younger
	if err := lm.Acquire(2, "x", X); err != nil {
		t.Fatal(err)
	}
	// The older transaction wounds the younger holder, but is granted
	// the lock only once the victim has released it: until then the
	// victim's dirty writes are still in place.
	granted := make(chan error, 1)
	go func() { granted <- lm.Acquire(1, "x", X) }()
	for !lm.Aborted(2) {
		runtime.Gosched()
	}
	if m, ok := lm.HoldsLock(2, "x"); !ok || m != X {
		t.Fatal("wounded holder lost its lock before releasing it")
	}
	select {
	case err := <-granted:
		t.Fatalf("older requester granted over a victim that has not rolled back (err %v)", err)
	default:
	}
	lm.ReleaseAll(2)
	if err := <-granted; err != nil {
		t.Fatalf("older requester should win: %v", err)
	}
	if lm.Wounds != 1 {
		t.Errorf("Wounds = %d, want 1", lm.Wounds)
	}
}

// runBank drives workers x transfers concurrent Transfers over a fresh
// DB, then audits it: money conserved and the committed history
// conflict-serializable. pick maps (worker, iteration) to the two
// account numbers. It returns how many transfers failed for good.
func runBank(t *testing.T, strategy Strategy, accounts, workers, transfers, maxRetries int, pick func(w, i int) (from, to int)) int64 {
	t.Helper()
	db := NewDB(strategy)
	const initial = 1000
	for i := 0; i < accounts; i++ {
		db.Set(fmt.Sprintf("acct%d", i), initial)
	}
	var failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < transfers; i++ {
				from, to := pick(w, i)
				if from == to {
					continue
				}
				if err := Transfer(db, fmt.Sprintf("acct%d", from), fmt.Sprintf("acct%d", to), 5, maxRetries); err != nil {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	total := int64(0)
	for i := 0; i < accounts; i++ {
		total += db.ReadCommitted(fmt.Sprintf("acct%d", i))
	}
	if want := int64(accounts * initial); total != want {
		t.Errorf("total = %d, want %d (money invented or destroyed)", total, want)
	}
	if ok, _ := IsConflictSerializable(db.History().Ops()); !ok {
		t.Error("2PL produced a non-serializable committed history")
	}
	return failed.Load()
}

func TestConcurrentTransfersPreserveBalance(t *testing.T) {
	for _, strategy := range []Strategy{Detect, WoundWait, WaitDie} {
		strategy := strategy
		t.Run(strategy.String(), func(t *testing.T) {
			const accounts = 6
			// A transfer that runs out of retries is fine here: the audit
			// is about the ones that committed.
			runBank(t, strategy, accounts, 8, 30, 50, func(w, i int) (int, int) {
				return (w + i) % accounts, (w + i + 1 + i%3) % accounts
			})
		})
	}
}

// TestTransferRestartDoesNotStarve is examples/txnbank's workload: under
// every policy each transfer must commit within its retry budget. A
// restart that took a fresh timestamp was younger than everything it
// met, so under wound-wait and wait-die the same transfer lost until
// the budget ran out.
func TestTransferRestartDoesNotStarve(t *testing.T) {
	for _, strategy := range []Strategy{Detect, WoundWait, WaitDie} {
		strategy := strategy
		t.Run(strategy.String(), func(t *testing.T) {
			const accounts = 8
			failed := runBank(t, strategy, accounts, 6, 100, 200, func(w, i int) (int, int) {
				return (w + i) % accounts, (w*3 + i + 1) % accounts
			})
			if failed != 0 {
				t.Errorf("%d transfers failed permanently", failed)
			}
		})
	}
}

func TestTxnLifecycleErrors(t *testing.T) {
	db := NewDB(Detect)
	tx := db.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Error("double commit accepted")
	}
	if _, err := tx.Get("x"); err == nil {
		t.Error("operation on finished txn accepted")
	}
	if err := tx.Put("x", 1); err == nil {
		t.Error("write on finished txn accepted")
	}
	tx.Abort() // no-op on finished txn
}

func TestRollbackRestoresValues(t *testing.T) {
	db := NewDB(Detect)
	db.Set("k", 5)
	tx := db.Begin()
	if err := tx.Put("k", 99); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put("new", 1); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if got := db.ReadCommitted("k"); got != 5 {
		t.Errorf("k = %d after rollback, want 5", got)
	}
	if got := db.ReadCommitted("new"); got != 0 {
		t.Errorf("new = %d after rollback, want absent/0", got)
	}
	if db.Aborts.Load() != 1 {
		t.Errorf("Aborts = %d, want 1", db.Aborts.Load())
	}
}

func TestSerializabilityChecker(t *testing.T) {
	// Classic non-serializable schedule: r1[x] w2[x] w1[x] (both commit).
	bad := []HistOp{
		{1, OpRead, "x"},
		{2, OpWrite, "x"},
		{1, OpWrite, "x"},
		{1, OpCommit, ""},
		{2, OpCommit, ""},
	}
	if ok, _ := IsConflictSerializable(bad); ok {
		t.Error("lost-update schedule reported serializable")
	}
	// Serial schedule is fine.
	good := []HistOp{
		{1, OpRead, "x"}, {1, OpWrite, "x"}, {1, OpCommit, ""},
		{2, OpRead, "x"}, {2, OpWrite, "x"}, {2, OpCommit, ""},
	}
	ok, order := IsConflictSerializable(good)
	if !ok {
		t.Error("serial schedule reported non-serializable")
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("witness order = %v, want [1 2]", order)
	}
	// Aborted transactions are excluded.
	withAbort := []HistOp{
		{1, OpRead, "x"},
		{2, OpWrite, "x"},
		{1, OpWrite, "x"},
		{1, OpCommit, ""},
		{2, OpAbort, ""},
	}
	if ok, _ := IsConflictSerializable(withAbort); !ok {
		t.Error("schedule serializable after excluding aborted txn")
	}
}

// Property: any single-threaded sequential execution is serializable.
func TestSequentialHistoriesSerializableProperty(t *testing.T) {
	f := func(opsRaw []uint8) bool {
		var ops []HistOp
		txn := 1
		for _, b := range opsRaw {
			switch b % 4 {
			case 0:
				ops = append(ops, HistOp{txn, OpRead, fmt.Sprintf("k%d", b%5)})
			case 1:
				ops = append(ops, HistOp{txn, OpWrite, fmt.Sprintf("k%d", b%5)})
			default:
				ops = append(ops, HistOp{txn, OpCommit, ""})
				txn++
			}
		}
		ops = append(ops, HistOp{txn, OpCommit, ""})
		ok, _ := IsConflictSerializable(ops)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTSOBasics(t *testing.T) {
	s := NewTSO(false)
	t1 := s.Begin()
	t2 := s.Begin()
	if err := s.Write(t2, "x", 2); err != nil {
		t.Fatal(err)
	}
	// Older read after younger write: too late.
	if _, err := s.Read(t1, "x"); err != ErrTooLate {
		t.Errorf("old read err = %v, want ErrTooLate", err)
	}
	// Older write after younger write: rejected without Thomas rule.
	if err := s.Write(t1, "x", 1); err != ErrTooLate {
		t.Errorf("old write err = %v, want ErrTooLate", err)
	}
	if s.Rejections != 2 {
		t.Errorf("Rejections = %d, want 2", s.Rejections)
	}
	if s.Value("x") != 2 {
		t.Errorf("value = %d, want 2", s.Value("x"))
	}
}

func TestTSOThomasWriteRule(t *testing.T) {
	s := NewTSO(true)
	t1 := s.Begin()
	t2 := s.Begin()
	if err := s.Write(t2, "x", 2); err != nil {
		t.Fatal(err)
	}
	// Obsolete write skipped silently.
	if err := s.Write(t1, "x", 1); err != nil {
		t.Errorf("Thomas rule should skip, got %v", err)
	}
	if s.Value("x") != 2 {
		t.Errorf("value = %d, want 2 (obsolete write must not land)", s.Value("x"))
	}
	// Write after a younger READ is still rejected.
	t3 := s.Begin()
	t4 := s.Begin()
	if _, err := s.Read(t4, "y"); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(t3, "y", 9); err != ErrTooLate {
		t.Errorf("write after younger read = %v, want ErrTooLate", err)
	}
}

func BenchmarkTransfersDetect(b *testing.B)    { benchTransfers(b, Detect) }
func BenchmarkTransfersWoundWait(b *testing.B) { benchTransfers(b, WoundWait) }
func BenchmarkTransfersWaitDie(b *testing.B)   { benchTransfers(b, WaitDie) }

func benchTransfers(b *testing.B, s Strategy) {
	db := NewDB(s)
	const accounts = 8
	for i := 0; i < accounts; i++ {
		db.Set(fmt.Sprintf("acct%d", i), 1_000_000)
	}
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			from := fmt.Sprintf("acct%d", i%accounts)
			to := fmt.Sprintf("acct%d", (i+3)%accounts)
			if from != to {
				_ = Transfer(db, from, to, 1, 100)
			}
			i++
		}
	})
}
