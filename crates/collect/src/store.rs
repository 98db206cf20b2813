//! Where a capture's events live: each instance's v4 body, and the
//! [`Profiles`] view a [`Capture`](crate::Capture) reads them through.
//!
//! Every capture holds its events this one way. In a session the collector
//! thread appends every batch to its instance's open chunk ([`BodyWriter`]),
//! about 4 bytes per event, and seals the chunk with its checksum at
//! [`CHUNK_EVENTS`](dsspy_events::encode::CHUNK_EVENTS) events; when the
//! session finishes, the open chunks are sealed and the bodies become the
//! capture. A capture read from a file holds the file's bodies, checked at
//! load, and [`Capture::new`](crate::Capture::new) encodes its profiles
//! once. Saving writes the bodies unchanged, analysis folds them a chunk at
//! a time, and they are decoded into profiles only when a caller reads the
//! events themselves.

use std::ops::Deref;
use std::sync::OnceLock;

use dsspy_events::encode::{Body, BodyWriter, DecodeError};
use dsspy_events::{AccessEvent, InstanceId, InstanceInfo, RuntimeProfile};
use parking_lot::Mutex;

use crate::persist::PersistError;

/// Each instance's body so far, indexed by instance id (an instance's id is
/// its registry position).
#[derive(Clone, Default)]
pub(crate) struct Store {
    bodies: Vec<BodyWriter>,
}

impl Store {
    /// Encode `batch` after the events instance `id` already has.
    pub(crate) fn store(&mut self, id: InstanceId, batch: &[AccessEvent]) {
        let slot = id.0 as usize;
        if self.bodies.len() <= slot {
            self.bodies.resize_with(slot + 1, BodyWriter::default);
        }
        self.bodies[slot].push(batch);
    }

    /// Instances that have at least one event.
    pub(crate) fn instances_with_events(&self) -> usize {
        self.bodies.iter().filter(|b| !b.is_empty()).count()
    }

    /// Seal every open chunk and pair instance `i` of `instances` with body
    /// `i`, or with no events past the last body.
    pub(crate) fn seal(self, instances: Vec<InstanceInfo>) -> Profiles {
        let mut bodies = self.bodies.into_iter();
        let sealed = instances
            .iter()
            .map(|_| bodies.next().unwrap_or_default().into())
            .collect();
        Profiles::new(instances, sealed)
    }
}

/// One instance's sealed body and the events it holds.
#[derive(Clone, Default)]
pub(crate) struct SealedBody {
    pub(crate) events: u64,
    pub(crate) bytes: Vec<u8>,
}

/// A sealed body never grows again, so it gives back the room its writer
/// reserved.
impl From<BodyWriter> for SealedBody {
    fn from(body: BodyWriter) -> SealedBody {
        let events = body.len();
        let mut bytes = body.finish();
        bytes.shrink_to_fit();
        SealedBody { events, bytes }
    }
}

/// A capture's per-instance profiles, in registration order.
///
/// The view holds each instance's sealed v4 body. [`Profiles::instances`],
/// [`Profiles::bodies`], [`Profiles::instance_count`] and
/// [`Profiles::event_count`] never decode. The first read of the profiles
/// themselves — [`Profiles::decode`], or indexing, iterating, anything
/// through `Deref<Target = [RuntimeProfile]>` — decodes every body once, on
/// every core, and keeps the result.
#[derive(Clone)]
pub struct Profiles {
    instances: Vec<InstanceInfo>,
    /// Body `i` holds the events of `instances[i]`.
    pub(crate) sealed: Vec<SealedBody>,
    /// The profiles, once a caller has read them.
    decoded: OnceLock<Vec<RuntimeProfile>>,
}

impl Profiles {
    pub(crate) fn new(instances: Vec<InstanceInfo>, sealed: Vec<SealedBody>) -> Profiles {
        Profiles {
            instances,
            sealed,
            decoded: OnceLock::new(),
        }
    }

    /// The instances, in order.
    pub fn instances(&self) -> &[InstanceInfo] {
        &self.instances
    }

    /// Each instance's body with its chunks framed, in order: what a caller
    /// that folds the events chunk by chunk reads. Every body's framing was
    /// checked when it was sealed or loaded.
    pub fn bodies(&self) -> Vec<Body<'_>> {
        let sealed = self.sealed.iter();
        sealed
            .map(|b| Body::parse(&b.bytes, b.events).expect("a sealed body parses"))
            .collect()
    }

    /// The number of instances.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// The number of events across all instances.
    pub fn event_count(&self) -> usize {
        self.sealed.iter().map(|b| b.events as usize).sum()
    }

    /// The profiles, decoded on the first call. A chunk whose rows do not
    /// decode is the error, naming its instance: the first in instance
    /// order. Load checks every chunk's checksum, so only a file forged to
    /// match its checksums can fail here; a caller reading such a file calls
    /// this before it reads the events, which otherwise panic.
    pub fn decode(&self) -> Result<&[RuntimeProfile], PersistError> {
        if let Some(profiles) = self.decoded.get() {
            return Ok(profiles);
        }
        let profiles = self.decode_all()?;
        Ok(self.decoded.get_or_init(|| profiles))
    }

    fn decode_all(&self) -> Result<Vec<RuntimeProfile>, PersistError> {
        let threads = dsspy_parallel::default_threads();
        decode_profiles(&self.instances, &self.bodies(), threads)
            .map_err(|(body, e)| PersistError::bad_body(&self.instances[body], e))
    }

    /// The profiles, decoded.
    pub fn into_vec(mut self) -> Vec<RuntimeProfile> {
        match self.decoded.take() {
            Some(profiles) => profiles,
            None => self.decode_all().expect(DECODES),
        }
    }
}

const DECODES: &str = "a capture's chunks decode (call Profiles::decode to get the error)";

/// Encode each profile's events once.
impl From<Vec<RuntimeProfile>> for Profiles {
    fn from(profiles: Vec<RuntimeProfile>) -> Profiles {
        let (instances, sealed) = profiles
            .into_iter()
            .map(|profile| {
                let mut body = BodyWriter::default();
                body.push(&profile.events);
                (profile.instance, body.into())
            })
            .unzip();
        Profiles::new(instances, sealed)
    }
}

impl Deref for Profiles {
    type Target = [RuntimeProfile];

    fn deref(&self) -> &[RuntimeProfile] {
        self.decode().expect(DECODES)
    }
}

impl<'a> IntoIterator for &'a Profiles {
    type Item = &'a RuntimeProfile;
    type IntoIter = std::slice::Iter<'a, RuntimeProfile>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl IntoIterator for Profiles {
    type Item = RuntimeProfile;
    type IntoIter = std::vec::IntoIter<RuntimeProfile>;

    fn into_iter(self) -> Self::IntoIter {
        self.into_vec().into_iter()
    }
}

/// Equal when the decoded profiles are equal.
impl PartialEq for Profiles {
    fn eq(&self, other: &Profiles) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for Profiles {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Decode the chunks of all bodies on `threads` workers of
/// [`dsspy_parallel::par_map_weighted`], weighted by event count, and return
/// the profile of each of `instances` with its body's events, in stored
/// order.
///
/// Each chunk writes straight into its own slots of its body's vector, sized
/// from the validated chunk counts. A chunk's slots sit behind a lock only
/// so that the shared job list can hand them out; its one decoder takes the
/// lock once. On error the first failing chunk in body order is reported,
/// with its body's index, whatever the thread count.
fn decode_profiles(
    instances: &[InstanceInfo],
    bodies: &[Body<'_>],
    threads: usize,
) -> Result<Vec<RuntimeProfile>, (usize, DecodeError)> {
    let mut out: Vec<_> = bodies.iter().map(|b| Vec::with_capacity(b.len())).collect();
    let mut jobs = Vec::new();
    for (i, (body, events)) in bodies.iter().zip(out.iter_mut()).enumerate() {
        let mut spare = &mut events.spare_capacity_mut()[..body.len()];
        for chunk in body.chunks() {
            let (dst, rest) = std::mem::take(&mut spare).split_at_mut(chunk.len());
            spare = rest;
            jobs.push((i, chunk, Mutex::new(dst)));
        }
    }
    let results = dsspy_parallel::par_map_weighted(
        &jobs,
        threads,
        |(_, chunk, _)| chunk.len(),
        || (),
        |(), (_, chunk, dst)| chunk.decode_to(&mut dst.lock()),
    );
    let mut filled = vec![0usize; bodies.len()];
    for ((body, chunk, _), result) in jobs.iter().zip(results) {
        result.map_err(|e| (*body, e))?;
        filled[*body] += chunk.len();
    }
    drop(jobs);
    for ((events, body), filled) in out.iter_mut().zip(bodies).zip(filled) {
        assert_eq!(filled, body.len(), "every slot of the body was decoded");
        // SAFETY: the capacity is at least `body.len()`. The body's chunks
        // were handed disjoint, consecutive slot ranges of the spare
        // capacity that together cover `0..body.len()` (`Body::parse` makes
        // `len` the sum of the chunk counts), and a successful
        // `Chunk::decode_to` has written every slot of its range. The assert
        // above checks that every chunk of this body succeeded, so all
        // `body.len()` slots are initialized. `AccessEvent: Copy`, so the
        // vectors dropped on an earlier error own nothing to drop.
        unsafe { events.set_len(body.len()) };
    }
    let instances = instances.iter().cloned();
    Ok(instances
        .zip(out)
        .map(|(instance, events)| RuntimeProfile { instance, events })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsspy_events::{AccessKind, AllocationSite, DsKind};

    fn info(id: u64) -> InstanceInfo {
        InstanceInfo::new(
            InstanceId(id),
            AllocationSite::new("C", "m", id as u32),
            DsKind::List,
            "i32",
        )
    }

    #[test]
    fn seal_pairs_instances_with_bodies() {
        let mut store = Store::default();
        store.store(
            InstanceId(0),
            &[AccessEvent::at(0, AccessKind::Insert, 0, 1)],
        );
        let profiles = store.seal(vec![info(0), info(1)]);
        assert_eq!(profiles.instance_count(), 2);
        assert_eq!(profiles.event_count(), 1);
        assert_eq!(profiles.instances()[1], info(1));
        assert_eq!(profiles.sealed[1].events, 0);
        assert_eq!(profiles[0].len(), 1);
        assert!(profiles[1].is_empty());
    }

    #[test]
    fn batches_and_profiles_seal_to_the_same_bytes() {
        let mut store = Store::default();
        let events: Vec<_> = (0..10u32)
            .map(|i| AccessEvent::at(u64::from(i), AccessKind::Insert, i, i + 1))
            .collect();
        for batch in events.chunks(3) {
            store.store(InstanceId(1), batch);
        }
        let sealed = store.seal(vec![info(0), info(1)]);
        let encoded = Profiles::from(vec![
            RuntimeProfile::new(info(0), Vec::new()),
            RuntimeProfile::new(info(1), events.clone()),
        ]);
        assert_eq!(sealed.sealed[1].bytes, encoded.sealed[1].bytes);
        assert_eq!(sealed, encoded);
        assert_eq!(sealed.clone().into_vec()[1].events, events);
        assert_eq!(sealed.into_iter().count(), 2);
    }
}
