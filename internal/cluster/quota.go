package cluster

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"looppart/internal/telemetry"
)

// AnonTenant is the bucket requests without an X-Tenant header share.
// Anonymous traffic competes with itself, not with named tenants, so a
// skewed anonymous burst cannot starve an identified one.
const AnonTenant = "anon"

// maxTenants bounds the tenant map; once exceeded, buckets idle long
// enough to have refilled completely are pruned. A pruned tenant
// restarts with a full bucket, so eligibility requires both projected
// fullness and no token spent within a full refill window — a tenant
// that just drained its burst cannot launder the drain through a prune
// and double-dip.
const maxTenants = 4096

// Quotas is a per-tenant token-bucket rate limiter for the planning
// routes: each tenant draws from its own bucket of burst tokens
// refilled at rate tokens/second, so one tenant's flood sheds with 429
// while every other tenant keeps planning. A nil *Quotas admits
// everything, the disabled state. Safe for concurrent use.
type Quotas struct {
	rate  float64
	burst float64
	now   func() time.Time

	mu      sync.Mutex
	tenants map[string]*bucket

	allowed  atomic.Int64
	rejected atomic.Int64
}

// bucket is one tenant's token state.
type bucket struct {
	tokens float64
	last   time.Time
	// spent is when the tenant last spent a token. Pruning a bucket
	// forgets its debt (a fresh bucket starts full), so prune only
	// considers tenants whose last spend is at least a full refill window
	// in the past — by then a surviving bucket would have refilled anyway
	// and forgetting it costs nothing.
	spent time.Time
}

// NewQuotas returns a limiter granting each tenant rate requests/second
// with bursts of burst (rate rounded up when burst < 1). A rate <= 0
// returns nil — the admit-everything limiter.
func NewQuotas(rate, burst float64) *Quotas {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = math.Max(1, math.Ceil(rate))
	}
	return &Quotas{
		rate:    rate,
		burst:   burst,
		now:     time.Now,
		tenants: make(map[string]*bucket),
	}
}

// Allow spends one token from tenant's bucket ("" draws from
// AnonTenant). When the bucket is empty it reports false and how long
// until a token accrues — the 429 Retry-After value.
func (q *Quotas) Allow(tenant string) (bool, time.Duration) {
	if q == nil {
		return true, 0
	}
	if tenant == "" {
		tenant = AnonTenant
	}
	now := q.now()
	q.mu.Lock()
	b, ok := q.tenants[tenant]
	if !ok {
		if len(q.tenants) >= maxTenants {
			q.prune()
		}
		b = &bucket{tokens: q.burst, last: now, spent: now}
		q.tenants[tenant] = b
	} else {
		b.tokens = math.Min(q.burst, b.tokens+q.rate*now.Sub(b.last).Seconds())
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		b.spent = now
		q.mu.Unlock()
		q.allowed.Add(1)
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / q.rate * float64(time.Second))
	q.mu.Unlock()
	q.rejected.Add(1)
	return false, wait
}

// prune drops buckets that are both projected full and untouched for at
// least a full refill window (burst/rate seconds since the last spend),
// under the caller's lock. The spend-age gate closes the double-dip
// loophole: a tenant that drained its burst and went briefly idle is
// projected full only because of the drain it still owes, and deleting
// it would hand back a fresh full bucket early.
func (q *Quotas) prune() {
	now := q.now()
	refillWindow := time.Duration(q.burst / q.rate * float64(time.Second))
	for t, b := range q.tenants {
		full := math.Min(q.burst, b.tokens+q.rate*now.Sub(b.last).Seconds()) >= q.burst
		if full && now.Sub(b.spent) >= refillWindow {
			delete(q.tenants, t)
		}
	}
}

// QuotaStats is a point-in-time view of the limiter.
type QuotaStats struct {
	Rate     float64 `json:"rate"`
	Burst    float64 `json:"burst"`
	Tenants  int     `json:"tenants"`
	Allowed  int64   `json:"allowed"`
	Rejected int64   `json:"rejected"`
}

// Stats returns the current counters (zero value on nil).
func (q *Quotas) Stats() QuotaStats {
	if q == nil {
		return QuotaStats{}
	}
	q.mu.Lock()
	n := len(q.tenants)
	q.mu.Unlock()
	return QuotaStats{
		Rate:     q.rate,
		Burst:    q.burst,
		Tenants:  n,
		Allowed:  q.allowed.Load(),
		Rejected: q.rejected.Load(),
	}
}

// Collect writes the limiter's tenant count and decisions into snap, for
// a telemetry registry to read at snapshot time (Registry.Collect).
func (q *Quotas) Collect(snap telemetry.Snapshot) {
	st := q.Stats()
	snap.Gauges["cluster.quota.tenants"] = float64(st.Tenants)
	snap.Gauges["cluster.quota.allowed"] = float64(st.Allowed)
	snap.Gauges["cluster.quota.rejected"] = float64(st.Rejected)
}
