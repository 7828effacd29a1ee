// Package reliable is the shared reliability-policy layer for every
// networked pipeline in the repo (GNS UDP resolution, NomadLog HTTP upload,
// vantage TCP collection). The paper's measurement infrastructure lived on
// hostile networks — intermittent cellular/WiFi uplinks and PlanetLab node
// churn — so the client paths retry with exponential backoff, bound their
// patience with context deadlines, cap wasted work with retry budgets, and
// degrade gracefully to stale cached answers when the network stays down
// (the dominant operating regime of loc/ID mapping caches).
//
// Everything here is deterministic given a seed: jitter comes from an
// explicit *rand.Rand and sleeping goes through a hook, so chaos runs
// replay byte-for-byte.
package reliable

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"locind/internal/obs"
)

// Backoff computes exponential backoff delays with optional deterministic
// jitter. The zero value is usable (no waiting between attempts).
type Backoff struct {
	// Base is the delay before the first retry. Zero means no delay.
	Base time.Duration
	// Max caps each delay. Zero means uncapped.
	Max time.Duration
	// Factor is the growth multiplier per retry; values below 1 are
	// treated as 2 (except 1 itself, which keeps delays constant).
	Factor float64
	// Jitter is the fraction of each delay that is randomized, in [0, 1].
	// A delay d with jitter j becomes uniform in [d(1-j), d].
	Jitter float64
}

// Delay returns the pause before retry number attempt (0 = first retry).
// Jitter, when configured, is drawn from rng; a nil rng disables jitter so
// the schedule stays deterministic without a seed.
func (b Backoff) Delay(attempt int, rng *rand.Rand) time.Duration {
	if b.Base <= 0 {
		return 0
	}
	factor := b.Factor
	if factor < 1 {
		factor = 2
	}
	d := float64(b.Base)
	for i := 0; i < attempt; i++ {
		d *= factor
		if b.Max > 0 && d >= float64(b.Max) {
			d = float64(b.Max)
			break
		}
	}
	if b.Max > 0 && d > float64(b.Max) {
		d = float64(b.Max)
	}
	if b.Jitter > 0 && rng != nil {
		j := b.Jitter
		if j > 1 {
			j = 1
		}
		d = d * (1 - j + j*rng.Float64())
	}
	return time.Duration(d)
}

// Budget caps the total number of retries spent across many operations
// sharing it — the fleet-wide "don't melt the server" guard. The zero value
// is an empty budget; use NewBudget. A nil *Budget is unlimited.
type Budget struct {
	mu        sync.Mutex
	remaining int
}

// NewBudget returns a budget allowing n retries in total.
func NewBudget(n int) *Budget { return &Budget{remaining: n} }

// Take consumes one retry from the budget, reporting whether one was left.
// A nil budget always grants.
func (b *Budget) Take() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.remaining <= 0 {
		return false
	}
	b.remaining--
	return true
}

// Remaining reports how many retries are left. A nil budget reports -1.
func (b *Budget) Remaining() int {
	if b == nil {
		return -1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.remaining
}

// ErrBudgetExhausted is wrapped into Do's error when the retry budget ran
// out before the operation succeeded.
var ErrBudgetExhausted = errors.New("reliable: retry budget exhausted")

// permanentError marks an error as non-retryable.
type permanentError struct{ err error }

func (p permanentError) Error() string { return p.err.Error() }
func (p permanentError) Unwrap() error { return p.err }

// Permanent wraps err so Do stops retrying and returns it immediately.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return permanentError{err}
}

// IsPermanent reports whether err was marked with Permanent.
func IsPermanent(err error) bool {
	var p permanentError
	return errors.As(err, &p)
}

// Policy is a reusable retry policy: how many attempts, how long each may
// take, how to pause between them, and which budget they draw from.
type Policy struct {
	// MaxAttempts is the total number of attempts (first try included).
	// Values below 1 are treated as 1.
	MaxAttempts int
	// PerAttempt bounds each attempt with a context deadline. Zero means
	// only the caller's context bounds the attempt.
	PerAttempt time.Duration
	// Backoff schedules the pauses between attempts.
	Backoff Backoff
	// Rand supplies jitter; nil disables jitter.
	Rand *rand.Rand
	// Budget, when non-nil, is consulted before every retry.
	Budget *Budget
	// Sleep replaces the real sleep between attempts (tests, virtual
	// clocks). It must honour ctx cancellation. Nil uses a timer.
	Sleep func(ctx context.Context, d time.Duration) error
	// OnRetry, when non-nil, observes every failed attempt that will be
	// retried: its 0-based index, its error, and the pause chosen.
	OnRetry func(attempt int, err error, delay time.Duration)
	// Metrics, when non-nil, counts attempts/retries/give-ups into obs
	// handles. Nil records nothing.
	Metrics *Metrics
	// TraceSpan, when non-nil, is the request span the retry loop runs
	// under: every attempt opens a child span labelled with its 0-based
	// index, so a causal tree shows each retry as a sibling under the one
	// request that caused it. Nil traces nothing.
	TraceSpan *obs.Span
}

// Do runs op under the policy until it succeeds, exhausts attempts or
// budget, hits a Permanent error, or ctx is done. It returns the number of
// attempts actually made alongside the final error.
func (p Policy) Do(ctx context.Context, op func(ctx context.Context) error) (attempts int, err error) {
	max := p.MaxAttempts
	if max < 1 {
		max = 1
	}
	sleep := p.Sleep
	if sleep == nil {
		sleep = sleepCtx
	}
	m := p.Metrics.orNop()
	var lastErr error
	for attempt := 0; attempt < max; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return attempt, fmt.Errorf("%w (after %d attempts: %w)", err, attempt, lastErr)
			}
			return attempt, err
		}
		attemptCtx, cancel := ctx, context.CancelFunc(nil)
		if p.PerAttempt > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, p.PerAttempt)
		}
		m.Attempts.Inc()
		span := p.TraceSpan.Child("attempt", "n", strconv.Itoa(attempt))
		err := op(attemptCtx)
		span.End()
		if cancel != nil {
			cancel()
		}
		if err == nil {
			return attempt + 1, nil
		}
		lastErr = err
		if IsPermanent(err) {
			m.GiveUps.Inc()
			return attempt + 1, err
		}
		if attempt+1 >= max {
			break
		}
		if !p.Budget.Take() {
			m.GiveUps.Inc()
			return attempt + 1, fmt.Errorf("%w: %w", ErrBudgetExhausted, lastErr)
		}
		delay := p.Backoff.Delay(attempt, p.Rand)
		m.retry(delay)
		if p.OnRetry != nil {
			p.OnRetry(attempt, err, delay)
		}
		if delay > 0 {
			if err := sleep(ctx, delay); err != nil {
				return attempt + 1, fmt.Errorf("%w (after %d attempts: %w)", err, attempt+1, lastErr)
			}
		}
	}
	m.GiveUps.Inc()
	return max, fmt.Errorf("reliable: all %d attempts failed: %w", max, lastErr)
}

// sleepCtx sleeps for d or until ctx is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Cache is a last-known-good store keyed by K: the stale-mapping fallback
// of loc/ID resolution. It is safe for concurrent use.
//
// The zero value is unbounded. Bound gives it a capacity with epoch-flush
// eviction: crossing the cap drops the whole map in one O(1) swap rather than tracking per-entry recency, which is the right
// trade for a fallback cache — a flushed entry is repopulated by the next
// successful fetch, and million-name runs cannot grow the map without
// limit.
type Cache[K comparable, V any] struct {
	mu        sync.Mutex
	m         map[K]V
	limit     int
	evictions int64
	evictCtr  *obs.Counter
}

// Bound caps the cache at limit entries (0 restores unbounded) and, when
// ctr is non-nil, counts flushed entries into it. Safe to call at any time;
// an over-full cache is flushed on its next Put.
func (c *Cache[K, V]) Bound(limit int, ctr *obs.Counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.limit = limit
	c.evictCtr = ctr
}

// Evictions returns how many entries epoch flushes have dropped.
func (c *Cache[K, V]) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// Put stores the freshest value for k.
func (c *Cache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = map[K]V{}
	}
	if c.limit > 0 && len(c.m) >= c.limit {
		if _, ok := c.m[k]; !ok {
			// Epoch flush: one more distinct key would cross the cap, so
			// the whole epoch is dropped and restarted with this entry.
			n := int64(len(c.m))
			c.evictions += n
			c.evictCtr.Add(n)
			c.m = make(map[K]V, c.limit)
		}
	}
	c.m[k] = v
}

// Get returns the cached value for k, if any.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[k]
	return v, ok
}

// Len returns the number of cached keys.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Fallback runs fetch; on success it caches and returns the fresh value
// (stale=false). On failure it falls back to the cached value when one
// exists, returning it with stale=true and a nil error — graceful
// degradation. With no cached value the fetch error is returned.
func (c *Cache[K, V]) Fallback(k K, fetch func() (V, error)) (v V, stale bool, err error) {
	v, err = fetch()
	if err == nil {
		c.Put(k, v)
		return v, false, nil
	}
	if cached, ok := c.Get(k); ok {
		return cached, true, nil
	}
	return v, false, err
}
