//! Seeded input generation: the arrival schedule of every window and the
//! request each arrival carries. The server only ever sees the bytes made
//! from this plan; nothing here depends on run-time timing, so one seed
//! gives one plan.

use rhythm_banking::prelude::{RequestType, TABLE2};

use crate::spec::{
    Traffic, WorkloadSpec, LONE_REQUESTS, OCCUPANCY_LIMIT, RUNGS, SESSION_CAPACITY, USERS, WARM_S,
};

/// xorshift64* seeded through splitmix64, so nearby seeds and stream ids
/// give unrelated streams.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut z = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add(0x632B_E59B_D9B4_E019);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next_f64() * (hi - lo) as f64) as u32
    }
}

/// One scheduled request: when it is due and what it asks for.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Arrival {
    /// Seconds after the window opens.
    pub at_s: f64,
    pub ty: RequestType,
    pub user: u32,
    /// Type-specific second parameter (`a=`), 0 when the type has none.
    pub p1: u32,
}

impl Arrival {
    pub fn params(&self) -> [u32; 4] {
        [self.user, self.p1, 0, 0]
    }
}

/// One window of the run: a fixed offered rate for a fixed time.
#[derive(Clone, Debug)]
pub struct Window {
    /// Index into the workload's rungs; `None` for the warm window.
    pub rung: Option<usize>,
    pub dur_s: f64,
    pub arrivals: Vec<Arrival>,
}

/// The whole plan of one run, in run order.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Sent once after the set-up logins on mix workloads: one request of
    /// every session-neutral type, so no measured window pays a kernel's
    /// first decode.
    pub touch: Vec<Arrival>,
    pub warm: Window,
    /// Sent one at a time, each as soon as the previous is answered: the
    /// latency of a lone request on an idle server.
    pub lone: Vec<Arrival>,
    pub measured: Vec<Window>,
    /// Traced runs only: one more window at `r2`, after the measured ones,
    /// whose requests carry `rid` parameters and leave spans.
    pub traced: Option<Window>,
}

/// The user's home connection: 32 consecutive users per connection.
pub fn conn_of(user: u32) -> usize {
    (user / (USERS / crate::spec::CONNS as u32)) as usize
}

/// Range of the type's second parameter (`crates/banking/src/genreq.rs`
/// draws the same ranges for the offline figures).
fn second_param(ty: RequestType, rng: &mut Rng) -> u32 {
    match ty {
        RequestType::BillPay | RequestType::PostTransfer => rng.range(100, 500_000),
        RequestType::PlaceCheckOrder => rng.range(1, 6),
        RequestType::CheckDetailHtml => rng.range(1000, 9999),
        RequestType::PostPayee => rng.range(1, 100),
        _ => 0,
    }
}

fn sample_type(rng: &mut Rng) -> RequestType {
    let x = rng.next_f64() * 100.0;
    let mut acc = 0.0;
    for info in &TABLE2 {
        acc += info.mix_percent;
        if x < acc {
            return info.ty;
        }
    }
    RequestType::Login
}

/// Which users hold a session, in schedule order. A Logout is only drawn
/// for a live user and takes the user out until a later Login; every other
/// non-login type is only drawn for a live user. The generator holds each
/// request back at run time until its user's earlier requests allow it
/// (see `loadgen.rs`), so no request is ever issued on a logged-out user.
#[derive(Clone, Debug)]
pub struct MixState {
    live: Vec<bool>,
    live_count: u32,
}

impl MixState {
    pub fn all_live() -> Self {
        MixState {
            live: vec![true; USERS as usize],
            live_count: USERS,
        }
    }

    fn draw_live(&self, rng: &mut Rng) -> u32 {
        assert!(self.live_count > 0, "no live user left to draw");
        loop {
            let u = rng.range(0, USERS);
            if self.live[u as usize] {
                return u;
            }
        }
    }

    fn next(&mut self, rng: &mut Rng) -> (RequestType, u32) {
        let mut ty = sample_type(rng);
        if ty.is_logout() && self.live_count <= USERS / 2 {
            // Keeps half the users live whatever the seed draws; with
            // 28 % logins against 8 % logouts it does not trigger.
            ty = RequestType::Login;
        }
        let user = if ty.is_login() {
            rng.range(0, USERS)
        } else {
            self.draw_live(rng)
        };
        if ty.is_login() && !self.live[user as usize] {
            self.live[user as usize] = true;
            self.live_count += 1;
        } else if ty.is_logout() {
            self.live[user as usize] = false;
            self.live_count -= 1;
        }
        (ty, user)
    }
}

/// `n` arrival times uniform over `n / rate` seconds, sorted: a Poisson
/// process of that rate conditioned on its count. Every window of a run
/// carries the same `n` requests whatever its rung — a faster rung gets a
/// shorter window — so every reported percentile has the same number of
/// samples beyond it.
fn arrival_times(n: usize, dur_s: f64, rng: &mut Rng) -> Vec<f64> {
    let mut times: Vec<f64> = (0..n).map(|_| rng.next_f64() * dur_s).collect();
    times.sort_by(f64::total_cmp);
    times
}

fn window(
    spec: &WorkloadSpec,
    rung: Option<usize>,
    requests: usize,
    rng: &mut Rng,
    mix: &mut MixState,
) -> Window {
    let rate = spec.rungs[rung.unwrap_or(0)];
    let dur_s = requests as f64 / rate;
    let arrivals = arrival_times(requests, dur_s, rng)
        .into_iter()
        .map(|at_s| {
            let (ty, user) = match spec.traffic {
                Traffic::Summary => (RequestType::AccountSummary, rng.range(0, USERS)),
                Traffic::Mix => mix.next(rng),
            };
            let p1 = second_param(ty, rng);
            Arrival { at_s, ty, user, p1 }
        })
        .collect();
    Window {
        rung,
        dur_s,
        arrivals,
    }
}

/// Rung visited at position `pos` of round `round`: each round starts one
/// rung later, so every rung meets every level of session-table occupancy.
pub fn rung_at(round: usize, pos: usize) -> usize {
    (round + pos) % RUNGS
}

/// Build the plan of one run from the seed. `rounds × RUNGS` measured
/// windows of `window_requests` requests each follow the warm window,
/// then the traced window if asked for.
pub fn plan(
    spec: &WorkloadSpec,
    seed: u64,
    window_requests: usize,
    rounds: usize,
    with_traced: bool,
) -> Plan {
    let mut mix = MixState::all_live();
    let touch = match spec.traffic {
        Traffic::Summary => Vec::new(),
        Traffic::Mix => RequestType::ALL
            .iter()
            .filter(|ty| !ty.is_login() && !ty.is_logout())
            .enumerate()
            .map(|(i, &ty)| Arrival {
                at_s: 0.0,
                ty,
                user: i as u32 * (USERS / 16),
                p1: second_param(ty, &mut Rng::new(seed, 1000 + i as u64)),
            })
            .collect(),
    };
    let warm_requests = (WARM_S * spec.rungs[0]) as usize;
    let warm = window(spec, None, warm_requests, &mut Rng::new(seed, 0), &mut mix);
    let mut lone = window(
        spec,
        None,
        LONE_REQUESTS,
        &mut Rng::new(seed, 900),
        &mut mix,
    )
    .arrivals;
    lone.iter_mut().for_each(|a| a.at_s = 0.0);
    let mut measured = Vec::with_capacity(rounds * RUNGS);
    for round in 0..rounds {
        for pos in 0..RUNGS {
            let stream = 1 + (round * RUNGS + pos) as u64;
            measured.push(window(
                spec,
                Some(rung_at(round, pos)),
                window_requests,
                &mut Rng::new(seed, stream),
                &mut mix,
            ));
        }
    }
    let traced = with_traced.then(|| {
        window(
            spec,
            Some(1),
            window_requests,
            &mut Rng::new(seed, 500),
            &mut mix,
        )
    });
    Plan {
        touch,
        warm,
        lone,
        measured,
        traced,
    }
}

/// Most session slots the plan can hold at once on one server: the 512
/// set-up logins plus every login, minus every logout, in run order. A
/// re-login leaks its old slot (the server has no expiry), so logins
/// count whether or not the user was live.
pub fn peak_session_slots(plan: &Plan) -> i64 {
    let mut slots = USERS as i64;
    let mut peak = slots;
    let windows = std::iter::once(&plan.warm)
        .chain(&plan.measured)
        .chain(&plan.traced);
    for a in plan.lone.iter().chain(windows.flat_map(|w| &w.arrivals)) {
        if a.ty.is_login() {
            slots += 1;
        } else if a.ty.is_logout() {
            slots -= 1;
        }
        peak = peak.max(slots);
    }
    peak
}

/// Refuse a plan that would fill the session table past the limit.
pub fn check_occupancy(plan: &Plan) -> Result<i64, String> {
    let peak = peak_session_slots(plan);
    let limit = (SESSION_CAPACITY as f64 * OCCUPANCY_LIMIT) as i64;
    if peak > limit {
        Err(format!(
            "plan peaks at {peak} session slots, over {limit} ({:.0} % of {SESSION_CAPACITY})",
            OCCUPANCY_LIMIT * 100.0
        ))
    } else {
        Ok(peak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{workload, WORKLOADS};

    const ROUNDS: usize = 3;
    use rhythm_banking::genreq::raw_http;

    /// Same seed → identical schedule and identical request bytes; another
    /// seed → a different plan.
    #[test]
    fn same_seed_same_plan_and_bytes() {
        for spec in &WORKLOADS {
            let a = plan(spec, 7, 300, ROUNDS, true);
            let b = plan(spec, 7, 300, ROUNDS, true);
            let c = plan(spec, 8, 300, ROUNDS, true);
            let bytes = |p: &Plan| -> Vec<u8> {
                p.measured
                    .iter()
                    .flat_map(|w| &w.arrivals)
                    .flat_map(|a| raw_http(a.ty, 42, &a.params()))
                    .collect()
            };
            let times = |p: &Plan| -> Vec<f64> {
                p.measured
                    .iter()
                    .flat_map(|w| w.arrivals.iter().map(|a| a.at_s))
                    .collect()
            };
            assert_eq!(bytes(&a), bytes(&b), "{}", spec.name);
            assert_eq!(times(&a), times(&b), "{}", spec.name);
            assert_ne!(times(&a), times(&c), "{}", spec.name);
            assert_eq!(a.touch, b.touch);
            assert_eq!(a.warm.arrivals, b.warm.arrivals);
        }
    }

    /// Every window holds exactly the asked-for arrivals, in time order,
    /// inside a window as long as its rung's rate makes it.
    #[test]
    fn windows_have_fixed_counts() {
        let spec = workload("simt_mix").unwrap();
        let p = plan(spec, 1, 1000, ROUNDS, false);
        assert_eq!(p.measured.len(), ROUNDS * RUNGS);
        for w in &p.measured {
            assert_eq!(w.arrivals.len(), 1000);
            assert_eq!(w.dur_s, 1000.0 / spec.rungs[w.rung.unwrap()]);
            assert!(w.arrivals.windows(2).all(|p| p[0].at_s <= p[1].at_s));
            assert!(w.arrivals.iter().all(|a| (0.0..w.dur_s).contains(&a.at_s)));
        }
        let visited: Vec<usize> = p.measured.iter().map(|w| w.rung.unwrap()).collect();
        assert_eq!(visited, [0, 1, 2, 1, 2, 0, 2, 0, 1]);
    }

    /// In schedule order no request other than a Login is ever drawn for a
    /// logged-out user, and the mix follows Table 2.
    #[test]
    fn mix_never_schedules_on_logged_out_user() {
        let spec = workload("scalar_mix").unwrap();
        for seed in 1..6 {
            let p = plan(spec, seed, 6000, ROUNDS, true);
            let mut live = vec![true; USERS as usize];
            let mut logins = 0usize;
            let mut total = 0usize;
            let later = p.measured.iter().chain(&p.traced).flat_map(|w| &w.arrivals);
            for a in p.warm.arrivals.iter().chain(&p.lone).chain(later) {
                total += 1;
                if a.ty.is_login() {
                    logins += 1;
                    live[a.user as usize] = true;
                } else {
                    assert!(live[a.user as usize], "{:?} on logged-out user", a.ty);
                    if a.ty.is_logout() {
                        live[a.user as usize] = false;
                    }
                }
            }
            let share = logins as f64 / total as f64;
            assert!((share - 0.2817).abs() < 0.01, "login share {share}");
        }
        assert!(p_touch_is_session_neutral(&plan(spec, 1, 100, 1, false)));
    }

    fn p_touch_is_session_neutral(p: &Plan) -> bool {
        p.touch.len() == 12
            && p.touch
                .iter()
                .all(|a| !a.ty.is_login() && !a.ty.is_logout())
    }

    /// The occupancy pre-check counts leaked re-logins and refuses a plan
    /// over the limit.
    #[test]
    fn occupancy_check_counts_leaks() {
        let spec = workload("scalar_mix").unwrap();
        let p = plan(spec, 1, 6500, ROUNDS, false);
        let peak = check_occupancy(&p).expect("the shipped run shape fits");
        let arrivals = p.measured.iter().map(|w| w.arrivals.len()).sum::<usize>() as f64;
        // logins − logouts ≈ 20 % of the traffic, on top of the 512.
        let before = (p.warm.arrivals.len() + p.lone.len()) as f64;
        let expect = USERS as f64 + 0.2011 * (arrivals + before);
        assert!(
            (peak as f64 - expect).abs() < 0.05 * expect,
            "{peak} vs {expect}"
        );
        // Five times the windows does not fit a 65 536-slot table.
        let big = plan(spec, 1, 32_500, ROUNDS, false);
        assert!(check_occupancy(&big).is_err());
        let summary = plan(workload("scalar_summary").unwrap(), 1, 100, ROUNDS, false);
        assert_eq!(peak_session_slots(&summary), USERS as i64);
    }

    #[test]
    fn users_spread_evenly_over_connections() {
        assert_eq!(conn_of(0), 0);
        assert_eq!(conn_of(31), 0);
        assert_eq!(conn_of(32), 1);
        assert_eq!(conn_of(USERS - 1), crate::spec::CONNS - 1);
    }
}
