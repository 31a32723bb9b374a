package qcache

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestFlightFollowerLearnsLeaderID pins the attribution fix: a coalesced
// follower gets the request id of the leader whose computation served it.
func TestFlightFollowerLearnsLeaderID(t *testing.T) {
	f := NewFlight(nil)
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err, coalesced, leader := f.Do(context.Background(), fkey("k"), "leader-1", func() (any, error) {
			close(leaderIn)
			<-release
			return 42, nil
		})
		if v != 42 || err != nil || coalesced {
			t.Errorf("leader outcome: v=%v err=%v coalesced=%v", v, err, coalesced)
		}
		if leader != "leader-1" {
			t.Errorf("leader sees leader id %q, want its own", leader)
		}
	}()
	<-leaderIn
	var followerLeader string
	var followerCoalesced bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, followerCoalesced, followerLeader = f.Do(context.Background(), fkey("k"), "follower-2", func() (any, error) {
			t.Error("follower ran the computation")
			return nil, nil
		})
	}()
	// Give the follower time to park on the leader's call before release.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if !followerCoalesced {
		t.Fatal("follower was not coalesced")
	}
	if followerLeader != "leader-1" {
		t.Fatalf("follower learned leader id %q, want leader-1", followerLeader)
	}
}
