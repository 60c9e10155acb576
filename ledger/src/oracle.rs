//! The correctness oracle: a digest of a response, and the digest the
//! response must have — an unpruned `Tasm::scan` of the query's window,
//! post-filtered by the query's ROI and stride, at the same layout epoch.

use crate::requests::Request;
use tasm_core::{LabelPredicate, RegionPixels, Tasm};
use tasm_video::Plane;

/// Every 25th response is digested and checked — or, on the workloads that
/// issue thousands of requests, as many as keep the check to about 40
/// reference scans.
pub fn sample_every(requests: usize) -> usize {
    (requests / 40).max(25)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a-64 over (frame, rect, Y/U/V planes) of each region, in order.
pub fn digest<'a>(regions: impl IntoIterator<Item = &'a RegionPixels>) -> u64 {
    let mut h = FNV_OFFSET;
    for r in regions {
        for v in [r.frame, r.rect.x, r.rect.y, r.rect.w, r.rect.h] {
            h = fnv(h, &v.to_le_bytes());
        }
        for plane in Plane::ALL {
            h = fnv(h, r.pixels.plane(plane));
        }
    }
    h
}

/// The digest `request`'s response must have. `reference` should be serial
/// and uncached so it shares no decode state with the system under test.
pub fn expected(reference: &Tasm, video: &str, request: &Request) -> u64 {
    let scan = reference
        .scan(
            video,
            &LabelPredicate::label(request.label),
            request.frames.clone(),
        )
        .expect("reference scan");
    // The reference semantics of the planner (the requests carry no limit):
    // keep regions whose rectangle intersects the ROI and whose frame lies
    // on the stride, anchored at the window start.
    digest(scan.regions.iter().filter(|r| {
        request.roi.is_none_or(|roi| r.rect.intersects(&roi))
            && (r.frame - request.frames.start).is_multiple_of(request.stride)
    }))
}
