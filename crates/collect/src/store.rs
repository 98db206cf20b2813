//! Where a session's events live: each instance's v4 body, encoded as its
//! batches arrive, and the [`Profiles`] view a [`Capture`](crate::Capture)
//! reads them through.
//!
//! The collector thread appends every batch to its instance's open chunk
//! ([`BodyWriter`]), about 4 bytes per event, and seals the chunk with its
//! checksum at [`CHUNK_EVENTS`](dsspy_events::encode::CHUNK_EVENTS) events.
//! When the session finishes, the open chunks are sealed and the bodies
//! become the capture: saving writes them unchanged, analysis folds them a
//! chunk at a time, and they are decoded into profiles only when a caller
//! reads the events themselves.

use std::ops::Deref;
use std::sync::OnceLock;

use dsspy_events::encode::{Body, BodyWriter};
use dsspy_events::{AccessEvent, InstanceId, InstanceInfo, RuntimeProfile};

use crate::persist::decode_profiles;

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
    /// `i`, or with no events past the last body. A sealed body never grows
    /// again, so it gives back the room its writer reserved.
    pub(crate) fn seal(self, instances: Vec<InstanceInfo>) -> Profiles {
        let mut bodies = self.bodies.into_iter();
        let bodies = instances
            .iter()
            .map(|_| {
                let body = bodies.next().unwrap_or_default();
                let events = body.len();
                let mut bytes = body.finish();
                bytes.shrink_to_fit();
                SealedBody { events, bytes }
            })
            .collect();
        Profiles(Held::Sealed(Box::new(Sealed {
            instances,
            bodies,
            decoded: OnceLock::new(),
        })))
    }
}

/// One instance's sealed body and the events it holds.
#[derive(Clone, Default)]
struct SealedBody {
    events: u64,
    bytes: Vec<u8>,
}

#[derive(Clone)]
struct Sealed {
    instances: Vec<InstanceInfo>,
    bodies: Vec<SealedBody>,
    /// The profiles, once a caller has read them.
    decoded: OnceLock<Vec<RuntimeProfile>>,
}

impl Sealed {
    fn parse(&self) -> Vec<Body<'_>> {
        let bodies = self.bodies.iter();
        bodies
            .map(|b| Body::parse(&b.bytes, b.events).expect("a sealed body parses"))
            .collect()
    }

    fn decode(&self) -> Vec<RuntimeProfile> {
        let threads = dsspy_parallel::default_threads();
        decode_profiles(&self.instances, &self.parse(), threads).expect("a sealed body decodes")
    }
}

#[derive(Clone)]
enum Held {
    Decoded(Vec<RuntimeProfile>),
    Sealed(Box<Sealed>),
}

/// A capture's per-instance profiles, in registration order.
///
/// A session's capture holds each instance's sealed v4 body. The first read
/// of the profiles themselves — indexing, iterating, anything through
/// `Deref<Target = [RuntimeProfile]>` — decodes every body once, on every
/// core, and keeps the result. [`Profiles::events`],
/// [`Profiles::instance_count`] and [`Profiles::event_count`] never decode.
/// A capture built from profiles ([`Capture::new`](crate::Capture::new), or
/// read from a file) holds them decoded.
#[derive(Clone)]
pub struct Profiles(Held);

/// How a [`Profiles`] view holds its events: what a caller that folds them
/// without building profiles reads.
pub enum CaptureEvents<'a> {
    /// Decoded profiles.
    Decoded(&'a [RuntimeProfile]),
    /// The instances and, for each, its sealed body with its chunks framed.
    Sealed(&'a [InstanceInfo], Vec<Body<'a>>),
}

impl Profiles {
    /// The profiles' events as they are held, never decoded.
    pub fn events(&self) -> CaptureEvents<'_> {
        match &self.0 {
            Held::Decoded(profiles) => CaptureEvents::Decoded(profiles),
            Held::Sealed(sealed) => CaptureEvents::Sealed(&sealed.instances, sealed.parse()),
        }
    }

    /// Each instance's sealed body bytes, or `None` when the profiles are
    /// held decoded.
    pub(crate) fn sealed_bytes(&self) -> Option<impl Iterator<Item = &[u8]>> {
        match &self.0 {
            Held::Decoded(_) => None,
            Held::Sealed(sealed) => Some(sealed.bodies.iter().map(|b| &b.bytes[..])),
        }
    }

    /// Each instance with its number of events, in order.
    pub(crate) fn counted(&self) -> Vec<(&InstanceInfo, u64)> {
        match &self.0 {
            Held::Decoded(profiles) => profiles
                .iter()
                .map(|p| (&p.instance, p.len() as u64))
                .collect(),
            Held::Sealed(sealed) => sealed
                .instances
                .iter()
                .zip(&sealed.bodies)
                .map(|(instance, body)| (instance, body.events))
                .collect(),
        }
    }

    /// The number of instances.
    pub fn instance_count(&self) -> usize {
        match &self.0 {
            Held::Decoded(profiles) => profiles.len(),
            Held::Sealed(sealed) => sealed.instances.len(),
        }
    }

    /// The number of events across all instances.
    pub fn event_count(&self) -> usize {
        match &self.0 {
            Held::Decoded(profiles) => profiles.iter().map(RuntimeProfile::len).sum(),
            Held::Sealed(sealed) => sealed.bodies.iter().map(|b| b.events as usize).sum(),
        }
    }

    /// The profiles, decoded if they are held sealed.
    pub fn into_vec(self) -> Vec<RuntimeProfile> {
        match self.0 {
            Held::Decoded(profiles) => profiles,
            Held::Sealed(mut sealed) => sealed.decoded.take().unwrap_or_else(|| sealed.decode()),
        }
    }
}

impl From<Vec<RuntimeProfile>> for Profiles {
    fn from(profiles: Vec<RuntimeProfile>) -> Profiles {
        Profiles(Held::Decoded(profiles))
    }
}

impl Deref for Profiles {
    type Target = [RuntimeProfile];

    fn deref(&self) -> &[RuntimeProfile] {
        match &self.0 {
            Held::Decoded(profiles) => profiles,
            Held::Sealed(sealed) => sealed.decoded.get_or_init(|| sealed.decode()),
        }
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

/// Equal when the decoded profiles are equal, however each side holds them.
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
        assert!(profiles.sealed_bytes().is_some());
        assert_eq!(profiles[0].len(), 1);
        assert!(profiles[1].is_empty());
        assert_eq!(profiles.counted()[1], (&info(1), 0));
    }

    #[test]
    fn a_sealed_view_equals_its_decoded_profiles() {
        let mut store = Store::default();
        let events: Vec<_> = (0..10u32)
            .map(|i| AccessEvent::at(u64::from(i), AccessKind::Insert, i, i + 1))
            .collect();
        for batch in events.chunks(3) {
            store.store(InstanceId(1), batch);
        }
        let sealed = store.seal(vec![info(0), info(1)]);
        let decoded = Profiles::from(vec![
            RuntimeProfile::new(info(0), Vec::new()),
            RuntimeProfile::new(info(1), events.clone()),
        ]);
        assert_eq!(sealed, decoded);
        assert_eq!(sealed.clone().into_vec()[1].events, events);
        assert_eq!(sealed.into_iter().count(), 2);
    }
}
