//! Integration tests of the packed-CSR container (`graph::packed`):
//! property-based round-trips through the compressed format, corruption
//! handling and a mutational fuzz — every malformed container must come back
//! from the one reader as a typed [`GraphError`], never a panic, because
//! packed files arrive from disk and the network, not from this process —
//! and re-packing a path leaves the containers already open on it intact.

mod common;

use common::{check, int, vec, SplitMix64};
use scalagraph_suite::graph::error::GraphError;
use scalagraph_suite::graph::{packed, Csr, Edge, PackedCsr, PackedShape};

/// Random graph, optionally weighted, with duplicate edges and self-loops
/// allowed — everything `Csr::from_edges` accepts must round-trip.
fn arb_graph(rng: &mut SplitMix64, max_v: usize, max_e: usize) -> Csr {
    let v = int(rng, 2..max_v);
    let weighted = rng.chance(50);
    let n = v as u32;
    let edges = vec(rng, 0..max_e, |rng| {
        let (s, d, w) = (int(rng, 0..n), int(rng, 0..n), int(rng, 0u32..1024));
        if weighted {
            Edge::weighted(s, d, w)
        } else {
            Edge::new(s, d)
        }
    });
    Csr::from_edges(v, &edges)
}

/// Mirrors the container's checksum (word-wise FNV-1a over the body) so
/// corruption tests can damage the payload and re-seal the file — exactly
/// what the checksum cannot catch and the block decode must.
fn reseal(bytes: &mut [u8]) {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    const HEADER_LEN: usize = 56;
    let body = &bytes[HEADER_LEN..];
    let mut h = OFFSET;
    let mut i = 0;
    while i < body.len() {
        let take = (body.len() - i).min(8);
        let mut w = [0u8; 8];
        w[..take].copy_from_slice(&body[i..i + take]);
        h = (h ^ u64::from_le_bytes(w)).wrapping_mul(PRIME);
        i += take;
    }
    let sum = (h ^ body.len() as u64).wrapping_mul(PRIME);
    bytes[48..56].copy_from_slice(&sum.to_le_bytes());
}

fn shape_of(g: &Csr) -> PackedShape {
    PackedShape {
        num_vertices: g.num_vertices(),
        weighted: g.is_weighted(),
    }
}

const SAMPLE_SHAPE: PackedShape = PackedShape {
    num_vertices: 64,
    weighted: true,
};

fn sample_container() -> Vec<u8> {
    let edges: Vec<Edge> = (0u32..64)
        .flat_map(|s| [(s, (s * 7 + 1) % 64), (s, (s * 13 + 5) % 64)])
        .map(|(s, d)| Edge::weighted(s, d, s + d + 1))
        .collect();
    packed::pack_to_vec(&Csr::from_edges(64, &edges), 16)
}

/// The packed container reproduces the CSR bit-for-bit (offsets, adjacency
/// order, weights) across block sizes small enough to force many blocks.
#[test]
fn packed_roundtrip_matches_csr() {
    check(48, |rng| {
        let g = arb_graph(rng, 60, 400);
        let block = int(rng, 1u32..48);
        let back = PackedCsr::csr_from_bytes(packed::pack_to_vec(&g, block), shape_of(&g))
            .expect("freshly packed container must decode");
        assert_eq!(back, g);
    });
}

/// Truncation at *any* byte boundary is rejected with a typed error.
#[test]
fn truncation_never_panics() {
    check(48, |rng| {
        let g = arb_graph(rng, 24, 120);
        let block = int(rng, 1u32..16);

        let bytes = packed::pack_to_vec(&g, block);
        for len in 0..bytes.len() {
            let Err(err) = PackedCsr::csr_from_bytes(bytes[..len].to_vec(), shape_of(&g)) else {
                panic!("truncated container must not decode");
            };
            assert!(matches!(
                err,
                GraphError::PackedFormat { .. } | GraphError::PackedChecksum { .. }
            ));
        }
    });
}

/// A single damaged bit anywhere in the body fails checksum verification
/// (structural checks may also fire first for index bytes — either way the
/// error is typed).
#[test]
fn bit_rot_is_detected() {
    let bytes = sample_container();
    assert!(PackedCsr::csr_from_bytes(bytes.clone(), SAMPLE_SHAPE).is_ok());
    for pos in (56..bytes.len()).step_by(29) {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x40;
        let err = PackedCsr::csr_from_bytes(bad, SAMPLE_SHAPE)
            .err()
            .unwrap_or_else(|| panic!("flip at byte {pos} must be detected"));
        assert!(
            matches!(
                err,
                GraphError::PackedFormat { .. } | GraphError::PackedChecksum { .. }
            ),
            "flip at byte {pos}: unexpected error {err:?}"
        );
    }
}

/// Damaging the payload *and* re-sealing the checksum forces the block
/// decode to catch the damage: every single-byte corruption either still
/// decodes to a well-formed graph or is a typed error — never a panic, and
/// any neighbor pushed out of range is reported as such.
#[test]
fn resealed_corruption_yields_typed_errors() {
    let bytes = sample_container();
    let mut saw_out_of_range = false;
    let mut saw_rejection = false;
    for pos in 56..bytes.len() {
        for val in [bytes[pos] ^ 0xff, 0xff, 0x07] {
            let mut bad = bytes.clone();
            bad[pos] = val;
            reseal(&mut bad);
            match PackedCsr::csr_from_bytes(bad, SAMPLE_SHAPE) {
                Ok(g) => assert_eq!(g.num_vertices(), 64),
                Err(GraphError::VertexOutOfRange { num_vertices, .. }) => {
                    saw_out_of_range = true;
                    assert_eq!(num_vertices, 64);
                }
                Err(
                    GraphError::PackedFormat { .. }
                    | GraphError::PackedChecksum { .. }
                    | GraphError::MalformedOffsets { .. },
                ) => saw_rejection = true,
                Err(other) => panic!("corruption at byte {pos}: unexpected error {other:?}"),
            }
        }
    }
    assert!(
        saw_out_of_range,
        "no corruption produced an out-of-range id"
    );
    assert!(
        saw_rejection,
        "no corruption produced a structural rejection"
    );
}

#[test]
fn file_open_round_trips_and_rejects_damage() {
    let edges: Vec<Edge> = (0u32..100).map(|s| Edge::new(s, (s + 1) % 100)).collect();
    let g = Csr::from_edges(100, &edges);
    let dir = std::env::temp_dir();
    let path = dir.join(format!("scalagraph-it-packed-{}.sgpk", std::process::id()));

    let written = packed::write_packed(&g, &path, 32).expect("write container");
    let p = PackedCsr::open(&path).expect("open container");
    assert_eq!(written, std::fs::metadata(&path).expect("stat").len());
    assert_eq!(p.to_csr().expect("round-trip"), g);
    drop(p);
    assert_eq!(
        PackedCsr::read_csr(&path, shape_of(&g)).expect("read container"),
        g
    );

    // Truncate the file on disk: the mmap-backed open must reject it.
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
    let Err(err) = PackedCsr::open(&path) else {
        panic!("truncated file must not open");
    };
    assert!(matches!(
        err,
        GraphError::PackedFormat { .. } | GraphError::PackedChecksum { .. }
    ));
    let Err(read_err) = PackedCsr::read_csr(&path, shape_of(&g)) else {
        panic!("truncated file must not decode");
    };
    assert_eq!(read_err, err);
    std::fs::remove_file(&path).expect("cleanup");

    let missing = dir.join("scalagraph-it-packed-missing.sgpk");
    assert!(matches!(
        PackedCsr::open(&missing),
        Err(GraphError::Io { .. })
    ));
    assert!(matches!(
        PackedCsr::read_csr(&missing, shape_of(&g)),
        Err(GraphError::Io { .. })
    ));
}

/// Re-packing a path that another handle has open leaves that handle's
/// graph intact: the writer renames a new file over the path instead of
/// truncating and rewriting the mapped one.
#[test]
fn repacking_an_open_container_leaves_the_old_handle_intact() {
    let ring = |n: u32| {
        let edges: Vec<Edge> = (0..n).map(|s| Edge::new(s, (s + 1) % n)).collect();
        Csr::from_edges(n as usize, &edges)
    };
    let (old, new) = (ring(4096), ring(64));
    let dir = std::env::temp_dir();
    let name = format!("scalagraph-it-repack-{}.sgpk", std::process::id());
    let path = dir.join(&name);
    packed::write_packed(&old, &path, 32).expect("write container");
    let handle = PackedCsr::open(&path).expect("open container");
    packed::write_packed(&new, &path, 32).expect("re-pack the same path");
    assert_eq!(handle.to_csr().expect("the old handle decodes"), old);
    drop(handle);
    assert_eq!(
        PackedCsr::read_csr(&path, shape_of(&new)).expect("read the new container"),
        new
    );
    std::fs::remove_file(&path).expect("cleanup");
    let leftovers = std::fs::read_dir(&dir)
        .expect("list the temporary directory")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with(&name))
        .count();
    assert_eq!(leftovers, 0, "no temporary sibling is left behind");
}

/// A header whose counts the payload cannot encode is refused before any
/// array is sized by them. The crafted container passes every other
/// header and index check: 1000 one-vertex blocks, each spanning
/// `u32::MAX` edges in one payload byte, with `num_edges` matching the
/// index sentinel and a valid checksum — decoding it would ask for
/// terabytes.
#[test]
fn counts_beyond_the_payload_are_rejected_before_allocation() {
    let blocks = 1000u64;
    let payload = vec![0u8; blocks as usize]; // one degree-0 header per vertex
    let num_edges = blocks * u64::from(u32::MAX);
    let mut bytes = Vec::new();
    bytes.extend_from_slice(packed::PACKED_MAGIC);
    bytes.extend_from_slice(&packed::PACKED_VERSION.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes()); // flags: unweighted
    bytes.extend_from_slice(&blocks.to_le_bytes()); // num_vertices
    bytes.extend_from_slice(&num_edges.to_le_bytes());
    bytes.extend_from_slice(&1u32.to_le_bytes()); // block_size
    bytes.extend_from_slice(&0u32.to_le_bytes()); // reserved
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&0u64.to_le_bytes()); // checksum, sealed below
    for b in 0..=blocks {
        bytes.extend_from_slice(&b.to_le_bytes()); // payload offset
        bytes.extend_from_slice(&(b * u64::from(u32::MAX)).to_le_bytes()); // first edge
    }
    bytes.extend_from_slice(&payload);
    reseal(&mut bytes);

    let shape = PackedShape {
        num_vertices: blocks as usize,
        weighted: false,
    };
    let Err(err) = PackedCsr::csr_from_bytes(bytes, shape) else {
        panic!("a header claiming more edges than payload bytes must not decode");
    };
    assert!(matches!(err, GraphError::PackedFormat { .. }), "{err:?}");
}

/// `read_csr` compares the header's shape with the caller's before it
/// decodes a block: a container of another vertex count or weightedness is
/// refused as such even when its blocks are damaged too.
#[test]
fn read_csr_refuses_another_shape_before_decoding() {
    let mut bytes = sample_container();
    let last = bytes.len() - 1;
    bytes[last] = 0xff; // an unterminated varint in the last block
    reseal(&mut bytes);
    assert!(matches!(
        PackedCsr::csr_from_bytes(bytes.clone(), SAMPLE_SHAPE),
        Err(GraphError::PackedFormat { .. })
    ));
    for expect in [
        PackedShape {
            num_vertices: 63,
            ..SAMPLE_SHAPE
        },
        PackedShape {
            weighted: false,
            ..SAMPLE_SHAPE
        },
    ] {
        let Err(err) = PackedCsr::csr_from_bytes(bytes.clone(), expect) else {
            panic!("a container of another shape than {expect} must be refused");
        };
        assert!(matches!(err, GraphError::PackedShape { .. }), "{err:?}");
        assert!(err.to_string().contains(&expect.to_string()), "{err}");
    }
}

/// Header fields a fuzz mutation may rewrite, as (offset, width in bytes):
/// version, flags, vertex and edge counts, block size, the reserved word
/// and the payload length.
const HEADER_FIELDS: [(usize, usize); 7] =
    [(8, 4), (12, 4), (16, 8), (24, 8), (32, 4), (36, 4), (40, 8)];

/// Replaces the `width`-byte little-endian integer at `off`, if the
/// container still reaches that far, with a neighbouring or extreme value.
fn rewrite(rng: &mut SplitMix64, bytes: &mut [u8], off: usize, width: usize) {
    let Some(field) = bytes.get_mut(off..off + width) else {
        return;
    };
    let mut word = [0u8; 8];
    word[..width].copy_from_slice(field);
    let old = u64::from_le_bytes(word);
    let new = match int(rng, 0..5) {
        0 => old.wrapping_add(1),
        1 => old.wrapping_sub(1),
        2 => 0,
        3 => u64::MAX,
        _ => rng.next_u64() >> int(rng, 0u32..64),
    };
    field.copy_from_slice(&new.to_le_bytes()[..width]);
}

/// One mutation of a container packed with `index_words` block-index
/// words: a byte overwrite, a truncation, a splice of `donor`'s bytes, or a
/// rewritten header field or index word.
fn mutate(rng: &mut SplitMix64, bytes: &mut Vec<u8>, donor: &[u8], index_words: usize) {
    let at = |rng: &mut SplitMix64, len: usize| int(rng, 0..len + 1);
    match int(rng, 0..5) {
        0 if !bytes.is_empty() => {
            let i = int(rng, 0..bytes.len());
            bytes[i] = rng.next_u64() as u8;
        }
        1 => bytes.truncate(at(rng, bytes.len())),
        2 => {
            // A span of the donor, over as many bytes (so the container
            // keeps its length) or over a span of another length.
            let from = at(rng, donor.len());
            let to = int(rng, from..donor.len() + 1);
            let i = at(rng, bytes.len());
            let j = if rng.chance(50) {
                (i + to - from).min(bytes.len())
            } else {
                int(rng, i..bytes.len() + 1)
            };
            bytes.splice(i..j, donor[from..to].iter().copied());
        }
        3 => {
            let (off, width) = HEADER_FIELDS[int(rng, 0..HEADER_FIELDS.len())];
            rewrite(rng, bytes, off, width);
        }
        _ => {
            let word = int(rng, 0..index_words);
            rewrite(rng, bytes, 56 + 8 * word, 8);
        }
    }
}

/// The `.sgpk` fuzz: containers packed from random graphs at random block
/// sizes, damaged by up to four mutations and, in most cases, resealed so
/// the damage gets past the checksum to the header, index and block
/// checks. The one reader answers every case with a graph or a typed
/// error, never a panic, and an undamaged container with its source graph.
fn container_fuzz(rng: &mut SplitMix64) {
    let g = arb_graph(rng, 40, 200);
    let block = int(rng, 1u32..48);
    let donor = packed::pack_to_vec(&arb_graph(rng, 40, 200), int(rng, 1u32..48));
    let index_words = 2 * (g.num_vertices().div_ceil(block as usize) + 1);
    let mut bytes = packed::pack_to_vec(&g, block);
    let mutations = int(rng, 0..5);
    for _ in 0..mutations {
        mutate(rng, &mut bytes, &donor, index_words);
    }
    if bytes.len() >= 56 && rng.chance(80) {
        reseal(&mut bytes);
    }
    match PackedCsr::csr_from_bytes(bytes, shape_of(&g)) {
        Ok(back) if mutations == 0 => assert_eq!(back, g),
        Ok(back) => assert_eq!(back.num_vertices(), g.num_vertices()),
        Err(e) => assert!(mutations > 0, "an undamaged container is refused: {e}"),
    }
}

#[test]
fn mutated_containers_decode_or_fail_typed() {
    check(1000, container_fuzz);
}

/// The `.sgpk` fuzz at the case count and seed of `common::sweep`.
#[test]
#[ignore = "long sweep; tier-1 runs 1,000 cases"]
fn mutated_containers_long_sweep() {
    common::sweep(container_fuzz);
}
