// txnbank is the database-course lab: concurrent bank transfers under
// strict two-phase locking with three deadlock policies, a
// serializability audit of the recorded history, and the timestamp-
// ordering alternative.
package main

import (
	"fmt"
	"log"
	"sync"

	"pdcedu/internal/perf"
	"pdcedu/internal/txn"
)

func main() {
	const accounts = 8
	const initial = 1000

	t := perf.NewTable("Concurrent transfers under strict 2PL",
		"deadlock policy", "commits", "aborts", "balance preserved", "serializable")
	for _, strategy := range []txn.Strategy{txn.Detect, txn.WoundWait, txn.WaitDie} {
		db := txn.NewDB(strategy)
		for i := 0; i < accounts; i++ {
			db.Set(fmt.Sprintf("acct%d", i), initial)
		}
		var wg sync.WaitGroup
		for w := 0; w < 6; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					from := fmt.Sprintf("acct%d", (w+i)%accounts)
					to := fmt.Sprintf("acct%d", (w*3+i+1)%accounts)
					if from == to {
						continue
					}
					if err := txn.Transfer(db, from, to, 7, 200); err != nil {
						log.Fatalf("transfer failed permanently: %v", err)
					}
				}
			}()
		}
		wg.Wait()
		total := int64(0)
		for i := 0; i < accounts; i++ {
			total += db.ReadCommitted(fmt.Sprintf("acct%d", i))
		}
		ok, _ := txn.IsConflictSerializable(db.History().Ops())
		t.AddRow(strategy.String(), db.Commits.Load(), db.Aborts.Load(),
			total == accounts*initial, ok)
	}
	fmt.Println(t.String())

	// Timestamp ordering: the optimistic alternative rejects late ops.
	tso := txn.NewTSO(true)
	t1 := tso.Begin()
	t2 := tso.Begin()
	if err := tso.Write(t2, "acct0", 500); err != nil {
		log.Fatal(err)
	}
	_, err := tso.Read(t1, "acct0")
	fmt.Printf("timestamp ordering: older read after younger write -> %v\n", err)
	fmt.Printf("rejections so far: %d (a rejected transaction restarts with a new timestamp; the 2PL transfers above restart with their original one, so none starves)\n", tso.Rejections)
}
