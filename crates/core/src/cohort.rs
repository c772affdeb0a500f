//! Cohort contexts, their lifecycle FSM, and the cohort pool (paper §3.1
//! "Cohort Management").
//!
//! A cohort context tracks one batch of same-type requests:
//!
//! ```text
//! Free ──add──▶ PartiallyFull ──fill/timeout──▶ Busy ──responses sent──▶ Free
//! ```
//!
//! Contexts are preallocated in a fixed-size [`CohortPool`] (the paper
//! implements the pool as static arrays to avoid allocation and
//! synchronization overheads); running out of Free contexts is a
//! structural hazard that stalls the pipeline.
//!
//! FSM transitions are **fallible, not panicking**: a dispatcher driving
//! live traffic must be able to shed or re-queue a request that hits a
//! context in the wrong state instead of taking down the event loop, so
//! [`CohortContext::add`], [`CohortContext::launch`] and
//! [`CohortContext::release`] return [`CohortError`] values.

use std::fmt;

/// A rejected FSM transition on a [`CohortContext`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CohortError {
    /// `add` on a context that is not Free or PartiallyFull.
    NotAccepting(CohortState),
    /// `add` with a key different from the accumulating cohort's key.
    KeyMismatch {
        /// Key the context is accumulating.
        expected: u32,
        /// Key of the rejected request.
        found: u32,
    },
    /// `launch` on a context that is not PartiallyFull or Full.
    NotLaunchable(CohortState),
    /// `release` on a context that is not Busy.
    NotBusy(CohortState),
}

impl fmt::Display for CohortError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CohortError::NotAccepting(s) => write!(f, "cannot add to cohort in state {s:?}"),
            CohortError::KeyMismatch { expected, found } => {
                write!(
                    f,
                    "cohort key mismatch: context holds {expected}, got {found}"
                )
            }
            CohortError::NotLaunchable(s) => write!(f, "cannot launch a cohort in state {s:?}"),
            CohortError::NotBusy(s) => write!(f, "release requires Busy, context is {s:?}"),
        }
    }
}

impl std::error::Error for CohortError {}

/// An `add` that was refused, handing the request back to the caller so
/// it can be shed or re-queued.
#[derive(Clone, Debug)]
pub struct CohortRejected<R> {
    /// The request that was not admitted.
    pub request: R,
    /// Why it was refused.
    pub error: CohortError,
}

/// Lifecycle state of a cohort context.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CohortState {
    /// Unused; may be claimed to form a new cohort.
    Free,
    /// Has at least one request and is accumulating more.
    PartiallyFull,
    /// Reached the target size; ready to launch.
    Full,
    /// Executing in the process pipeline.
    Busy,
}

/// Identifier of a context within its pool.
pub type ContextId = u32;

/// One cohort context.
#[derive(Clone, Debug)]
pub struct CohortContext<R> {
    id: ContextId,
    state: CohortState,
    key: u32,
    members: Vec<R>,
    capacity: usize,
    opened_at: f64,
}

impl<R> CohortContext<R> {
    fn new(id: ContextId, capacity: usize) -> Self {
        CohortContext {
            id,
            state: CohortState::Free,
            key: 0,
            members: Vec::with_capacity(capacity),
            capacity,
            opened_at: 0.0,
        }
    }

    /// Context id within the pool.
    pub fn id(&self) -> ContextId {
        self.id
    }

    /// Current FSM state.
    pub fn state(&self) -> CohortState {
        self.state
    }

    /// The cohort key (request type) this context accumulates.
    pub fn key(&self) -> u32 {
        self.key
    }

    /// Requests currently in the cohort.
    pub fn members(&self) -> &[R] {
        &self.members
    }

    /// Time the first request was added (for timeout accounting).
    pub fn opened_at(&self) -> f64 {
        self.opened_at
    }

    /// Occupancy as a fraction of capacity.
    pub fn fill(&self) -> f64 {
        self.members.len() as f64 / self.capacity as f64
    }

    /// Add a request.
    ///
    /// # Errors
    ///
    /// Returns the request back inside [`CohortRejected`] if the context
    /// is Busy or already Full, or if the key does not match a non-empty
    /// context's key. The context is unchanged on error.
    pub fn add(&mut self, request: R, key: u32, now: f64) -> Result<(), CohortRejected<R>> {
        match self.state {
            CohortState::Free => {
                self.state = CohortState::PartiallyFull;
                self.key = key;
                self.opened_at = now;
            }
            CohortState::PartiallyFull => {
                if self.key != key {
                    return Err(CohortRejected {
                        request,
                        error: CohortError::KeyMismatch {
                            expected: self.key,
                            found: key,
                        },
                    });
                }
            }
            s => {
                return Err(CohortRejected {
                    request,
                    error: CohortError::NotAccepting(s),
                })
            }
        }
        self.members.push(request);
        if self.members.len() >= self.capacity {
            self.state = CohortState::Full;
        }
        Ok(())
    }

    /// Transition to Busy (launch), whether Full or timed out while
    /// PartiallyFull.
    ///
    /// # Errors
    ///
    /// [`CohortError::NotLaunchable`] unless the context is PartiallyFull
    /// or Full; the context is unchanged on error.
    pub fn launch(&mut self) -> Result<(), CohortError> {
        if !matches!(self.state, CohortState::PartiallyFull | CohortState::Full) {
            return Err(CohortError::NotLaunchable(self.state));
        }
        self.state = CohortState::Busy;
        Ok(())
    }

    /// Responses sent: drain the members and return to Free.
    ///
    /// # Errors
    ///
    /// [`CohortError::NotBusy`] unless the context is Busy; the context
    /// is unchanged on error.
    pub fn release(&mut self) -> Result<Vec<R>, CohortError> {
        if self.state != CohortState::Busy {
            return Err(CohortError::NotBusy(self.state));
        }
        self.state = CohortState::Free;
        self.key = 0;
        Ok(std::mem::take(&mut self.members))
    }
}

/// Fixed pool of cohort contexts.
pub struct CohortPool<R> {
    contexts: Vec<CohortContext<R>>,
}

impl<R> fmt::Debug for CohortPool<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CohortPool")
            .field("contexts", &self.contexts.len())
            .field("free", &self.free_count())
            .finish()
    }
}

impl<R> CohortPool<R> {
    /// Preallocate `count` contexts of `capacity` requests each.
    ///
    /// # Panics
    ///
    /// Panics if `count` or `capacity` is zero.
    pub fn new(count: u32, capacity: usize) -> Self {
        assert!(count > 0, "pool needs at least one context");
        assert!(capacity > 0, "cohort capacity must be nonzero");
        CohortPool {
            contexts: (0..count)
                .map(|i| CohortContext::new(i, capacity))
                .collect(),
        }
    }

    /// Total contexts.
    pub fn len(&self) -> usize {
        self.contexts.len()
    }

    /// A pool is never empty (construction enforces it).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Contexts currently Free.
    pub fn free_count(&self) -> usize {
        self.contexts
            .iter()
            .filter(|c| c.state == CohortState::Free)
            .count()
    }

    /// Borrow a context.
    pub fn get(&self, id: ContextId) -> &CohortContext<R> {
        &self.contexts[id as usize]
    }

    /// Mutably borrow a context.
    pub fn get_mut(&mut self, id: ContextId) -> &mut CohortContext<R> {
        &mut self.contexts[id as usize]
    }

    /// The open (PartiallyFull) context accumulating `key`, if any.
    pub fn open_for(&self, key: u32) -> Option<ContextId> {
        self.contexts
            .iter()
            .find(|c| c.state == CohortState::PartiallyFull && c.key == key)
            .map(|c| c.id)
    }

    /// Claim a Free context (does not change its state; the first `add`
    /// transitions it).
    pub fn acquire(&mut self) -> Option<ContextId> {
        self.contexts
            .iter()
            .find(|c| c.state == CohortState::Free)
            .map(|c| c.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_free_partial_full_busy_free() {
        let mut c: CohortContext<u32> = CohortContext::new(0, 2);
        assert_eq!(c.state(), CohortState::Free);
        c.add(10, 3, 1.0).unwrap();
        assert_eq!(c.state(), CohortState::PartiallyFull);
        assert_eq!(c.opened_at(), 1.0);
        assert_eq!(c.key(), 3);
        c.add(11, 3, 1.5).unwrap();
        assert_eq!(c.state(), CohortState::Full);
        c.launch().unwrap();
        assert_eq!(c.state(), CohortState::Busy);
        let members = c.release().unwrap();
        assert_eq!(members, vec![10, 11]);
        assert_eq!(c.state(), CohortState::Free);
        assert!(c.members().is_empty());
    }

    #[test]
    fn timeout_launch_from_partially_full() {
        let mut c: CohortContext<u32> = CohortContext::new(0, 8);
        c.add(1, 0, 0.0).unwrap();
        assert_eq!(c.fill(), 1.0 / 8.0);
        c.launch().unwrap();
        assert_eq!(c.state(), CohortState::Busy);
    }

    #[test]
    fn mixed_keys_rejected_with_request_returned() {
        let mut c: CohortContext<u32> = CohortContext::new(0, 4);
        c.add(1, 0, 0.0).unwrap();
        let rej = c.add(2, 1, 0.0).unwrap_err();
        assert_eq!(rej.request, 2, "rejected request handed back");
        assert_eq!(
            rej.error,
            CohortError::KeyMismatch {
                expected: 0,
                found: 1
            }
        );
        // The context is unchanged and still usable.
        assert_eq!(c.state(), CohortState::PartiallyFull);
        assert_eq!(c.members(), &[1]);
        c.add(3, 0, 0.0).unwrap();
        assert_eq!(c.members(), &[1, 3]);
    }

    #[test]
    fn add_to_busy_rejected() {
        let mut c: CohortContext<u32> = CohortContext::new(0, 1);
        c.add(1, 0, 0.0).unwrap();
        c.launch().unwrap();
        let rej = c.add(2, 0, 0.0).unwrap_err();
        assert_eq!(rej.request, 2);
        assert_eq!(rej.error, CohortError::NotAccepting(CohortState::Busy));
        assert_eq!(c.state(), CohortState::Busy, "busy context untouched");
    }

    #[test]
    fn add_to_full_rejected() {
        let mut c: CohortContext<u32> = CohortContext::new(0, 1);
        c.add(1, 0, 0.0).unwrap();
        assert_eq!(c.state(), CohortState::Full);
        let rej = c.add(2, 0, 0.0).unwrap_err();
        assert_eq!(rej.error, CohortError::NotAccepting(CohortState::Full));
        assert_eq!(c.members(), &[1]);
    }

    #[test]
    fn launch_free_rejected() {
        let mut c: CohortContext<u32> = CohortContext::new(0, 1);
        assert_eq!(
            c.launch().unwrap_err(),
            CohortError::NotLaunchable(CohortState::Free)
        );
        assert_eq!(c.state(), CohortState::Free);
    }

    #[test]
    fn release_non_busy_rejected() {
        let mut c: CohortContext<u32> = CohortContext::new(0, 1);
        assert_eq!(
            c.release().unwrap_err(),
            CohortError::NotBusy(CohortState::Free)
        );
    }

    #[test]
    fn error_display_messages() {
        assert!(CohortError::NotAccepting(CohortState::Busy)
            .to_string()
            .contains("cannot add"));
        let e = CohortError::KeyMismatch {
            expected: 3,
            found: 5,
        };
        assert!(e.to_string().contains("holds 3"));
        assert!(e.to_string().contains("got 5"));
        assert!(CohortError::NotLaunchable(CohortState::Free)
            .to_string()
            .contains("cannot launch"));
        assert!(CohortError::NotBusy(CohortState::Full)
            .to_string()
            .contains("requires Busy"));
    }

    #[test]
    fn pool_acquire_and_open_for() {
        let mut pool: CohortPool<u32> = CohortPool::new(2, 4);
        assert_eq!(pool.free_count(), 2);
        assert_eq!(pool.open_for(7), None);
        let id = pool.acquire().unwrap();
        pool.get_mut(id).add(1, 7, 0.0).unwrap();
        assert_eq!(pool.open_for(7), Some(id));
        assert_eq!(pool.open_for(8), None);
        assert_eq!(pool.free_count(), 1);
        let id2 = pool.acquire().unwrap();
        pool.get_mut(id2).add(2, 8, 0.0).unwrap();
        assert_eq!(pool.acquire(), None, "pool exhausted");
    }

    #[test]
    fn pool_full_cohorts_not_open() {
        let mut pool: CohortPool<u32> = CohortPool::new(1, 1);
        let id = pool.acquire().unwrap();
        pool.get_mut(id).add(1, 7, 0.0).unwrap();
        assert_eq!(pool.get(id).state(), CohortState::Full);
        assert_eq!(pool.open_for(7), None, "full context no longer open");
    }
}
