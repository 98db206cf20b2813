//! Time-series extraction from profiles.
//!
//! The grey backdrop of the paper's Figs. 2/3 is the *size evolution* of a
//! structure over its lifetime: a downsampled series over the event stream,
//! bucketed on the logical-time axis.

use serde::{Deserialize, Serialize};

use crate::profile::RuntimeProfile;

/// A downsampled series of `(bucket_end_seq, value)` points.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// `(last sequence number of the bucket, value)` pairs, in order.
    pub points: Vec<(u64, f64)>,
}

impl Series {
    /// The maximum value, 0.0 for an empty series.
    pub fn max(&self) -> f64 {
        self.points.iter().map(|(_, v)| *v).fold(0.0, f64::max)
    }

    /// The final value, 0.0 for an empty series.
    pub fn last(&self) -> f64 {
        self.points.last().map(|(_, v)| *v).unwrap_or(0.0)
    }

    /// Render as a one-line unicode sparkline (▁▂▃▄▅▆▇█), the table-cell
    /// form of the Fig. 2/3 backdrop.
    pub fn sparkline(&self) -> String {
        const BARS: [char; 8] = [
            '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
            '\u{2588}',
        ];
        let max = self.max();
        if max <= 0.0 {
            return BARS[0].to_string().repeat(self.points.len());
        }
        self.points
            .iter()
            .map(|(_, v)| {
                let idx = ((v / max) * (BARS.len() - 1) as f64).round() as usize;
                BARS[idx.min(BARS.len() - 1)]
            })
            .collect()
    }
}

/// The structure-length evolution: the size at the end of each of
/// `buckets` equal event-count windows.
///
/// ```
/// use dsspy_events::*;
///
/// let events: Vec<_> = (0..8)
///     .map(|i| AccessEvent::at(i, AccessKind::Insert, i as u32, i as u32 + 1))
///     .collect();
/// let info = InstanceInfo::new(
///     InstanceId(0),
///     AllocationSite::new("Doc", "m", 1),
///     DsKind::List,
///     "i32",
/// );
/// let series = size_series(&RuntimeProfile::new(info, events), 4);
/// assert_eq!(series.last(), 8.0);
/// assert_eq!(series.sparkline().chars().count(), 4);
/// ```
pub fn size_series(profile: &RuntimeProfile, buckets: usize) -> Series {
    let buckets = buckets.max(1);
    if profile.is_empty() {
        return Series::default();
    }
    let chunk_size = profile.len().div_ceil(buckets);
    Series {
        points: profile
            .events
            .chunks(chunk_size)
            .map(|chunk| {
                let last = chunk.last().expect("non-empty chunk");
                (last.seq, f64::from(last.len))
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AccessEvent, AccessKind};
    use crate::instance::{AllocationSite, DsKind, InstanceId, InstanceInfo};

    fn profile(events: Vec<AccessEvent>) -> RuntimeProfile {
        RuntimeProfile::new(
            InstanceInfo::new(
                InstanceId(0),
                AllocationSite::new("S", "m", 1),
                DsKind::List,
                "i32",
            ),
            events,
        )
    }

    /// Fill to 100 then clear — size rises then drops.
    fn fill_clear() -> RuntimeProfile {
        let mut events: Vec<_> = (0..100)
            .map(|i| AccessEvent::at(i, AccessKind::Insert, i as u32, i as u32 + 1))
            .collect();
        events.push(AccessEvent::whole(100, AccessKind::Clear, 100));
        for i in 0..19u64 {
            events.push(AccessEvent::at(
                101 + i,
                AccessKind::Insert,
                i as u32,
                i as u32 + 1,
            ));
        }
        profile(events)
    }

    #[test]
    fn size_series_tracks_growth_and_clear() {
        let s = size_series(&fill_clear(), 12);
        assert_eq!(s.points.len(), 12);
        assert_eq!(s.max(), 100.0);
        // The last bucket ends mid-refill, well below the peak.
        assert!(s.last() < 25.0, "{s:?}");
        // Monotone growth across the first buckets.
        assert!(s.points[0].1 < s.points[5].1);
    }

    #[test]
    fn empty_profile_series() {
        let s = size_series(&profile(vec![]), 10);
        assert!(s.points.is_empty());
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.last(), 0.0);
        assert_eq!(s.sparkline(), "");
    }

    #[test]
    fn sparkline_shape() {
        let s = Series {
            points: vec![(0, 0.0), (1, 50.0), (2, 100.0)],
        };
        let spark = s.sparkline();
        assert_eq!(spark.chars().count(), 3);
        let chars: Vec<char> = spark.chars().collect();
        assert!(chars[0] < chars[1] && chars[1] < chars[2], "{spark}");
        // All-zero series: flat baseline.
        let flat = Series {
            points: vec![(0, 0.0), (1, 0.0)],
        };
        assert_eq!(flat.sparkline(), "\u{2581}\u{2581}");
    }

    #[test]
    fn fewer_events_than_buckets() {
        let s = size_series(&fill_clear(), 1_000);
        assert_eq!(s.points.len(), 120, "one point per event");
    }
}
