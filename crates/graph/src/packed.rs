//! Delta+varint compressed, memory-mappable CSR container.
//!
//! The in-memory [`Csr`] spends 8 bytes per vertex (offset) and 4 bytes per
//! edge; at paper scale (Table III: Twitter = 1.47B edges) that is ~6 GiB
//! rebuilt from scratch on every process start. This module trades decode
//! work for footprint the way bandwidth-efficient graph systems (GraphScale,
//! Ligra+) do: adjacency lists are varint-encoded — delta-encoded first when
//! a vertex's neighbors are sorted — behind a coarse *block index*, and the
//! container is memory-mapped, so loading a packed graph costs one checksum
//! pass and one decode rather than a regeneration.
//!
//! # Container layout (all little-endian)
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"SGPKCSR1"
//!      8     4  version (= 1)
//!     12     4  flags   (bit 0: weighted)
//!     16     8  num_vertices
//!     24     8  num_edges
//!     32     4  block_size (vertices per block, >= 1)
//!     36     4  reserved (= 0)
//!     40     8  payload_len
//!     48     8  checksum (FNV-1a/64 over index + payload, 8-byte words)
//!     56     —  block index: (num_blocks + 1) x { payload_off u64, first_edge u64 }
//!      —     —  payload
//! ```
//!
//! The index has one sentinel entry past the last block, so block `b`'s
//! payload bytes are `index[b].off .. index[b+1].off` and its edge count is
//! `index[b+1].first_edge - index[b].first_edge` — both O(1) lookups.
//!
//! # Payload encoding
//!
//! Per vertex, in ascending id order: a varint header `(degree << 1) |
//! sorted`, then the adjacency list — if `sorted` (non-decreasing ids), the
//! first id absolute followed by per-edge gaps, else every id raw — and
//! finally, on weighted graphs, one varint weight per edge. The unsorted
//! escape guarantees *exact* round-trips for arbitrary adjacency order
//! (generator output order is part of a graph's identity here: the
//! simulator's tile layout, and therefore its cycle counts, depend on it).
//!
//! # Validation
//!
//! [`PackedCsr::open`] checks the header, checksums the body and checks the
//! block index. The blocks are checked as [`PackedCsr::to_csr`], their only
//! reader, decodes them straight into the [`Csr`] arrays: varint structure,
//! per-block edge counts, neighbor ranges. Truncation, bit rot and hostile
//! headers therefore all surface as typed [`GraphError`]s. The header's
//! vertex and edge counts are bounded by the payload length (each costs at
//! least one byte), so no header can make the decode allocate more than the
//! container's own size. [`PackedCsr::read_csr`], for callers that know the
//! graph they expect, also refuses a container of another [`PackedShape`]
//! before any block is decoded.

use crate::{Csr, GraphError, VertexId, Weight};
use std::fs::File;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic bytes prefixing the packed CSR container.
pub const PACKED_MAGIC: &[u8; 8] = b"SGPKCSR1";

/// Container format version written by this build.
pub const PACKED_VERSION: u32 = 1;

/// Default vertices per block: 1024 keeps the index at 16 KiB per million
/// vertices (resident even for Twitter-scale graphs).
pub const DEFAULT_BLOCK_SIZE: u32 = 1024;

const HEADER_LEN: usize = 56;
const INDEX_ENTRY_LEN: usize = 16;
const FLAG_WEIGHTED: u32 = 1;

fn format_err(detail: impl Into<String>) -> GraphError {
    GraphError::PackedFormat {
        detail: detail.into(),
    }
}

fn io_err(path: &Path, e: std::io::Error) -> GraphError {
    GraphError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

/// FNV-1a over 8-byte little-endian words (tail zero-padded), finalized
/// with the length. Word-at-a-time keeps open-time checksumming at memory
/// speed rather than byte-at-a-time speed.
fn checksum64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut i = 0;
    while i + 8 <= bytes.len() {
        let mut w = [0u8; 8];
        w.copy_from_slice(&bytes[i..i + 8]);
        h = (h ^ u64::from_le_bytes(w)).wrapping_mul(PRIME);
        i += 8;
    }
    if i < bytes.len() {
        let mut w = [0u8; 8];
        w[..bytes.len() - i].copy_from_slice(&bytes[i..]);
        h = (h ^ u64::from_le_bytes(w)).wrapping_mul(PRIME);
    }
    (h ^ bytes.len() as u64).wrapping_mul(PRIME)
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

#[inline]
fn read_varint(data: &[u8], pos: &mut usize) -> Result<u64, GraphError> {
    let mut val = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *data
            .get(*pos)
            .ok_or_else(|| format_err("varint runs past the end of its section"))?;
        *pos += 1;
        if shift == 63 && (b & 0x7f) > 1 {
            return Err(format_err("varint exceeds 64 bits"));
        }
        val |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(val);
        }
        shift += 7;
        if shift > 63 {
            return Err(format_err("varint exceeds 64 bits"));
        }
    }
}

/// Serializes `graph` into a packed container in memory.
///
/// # Panics
///
/// Panics if `block_size == 0`.
pub fn pack_to_vec(graph: &Csr, block_size: u32) -> Vec<u8> {
    assert!(block_size > 0, "block size must be positive");
    let n = graph.num_vertices();
    let m = graph.num_edges();
    let bsz = block_size as usize;
    let num_blocks = n.div_ceil(bsz);

    let mut payload = Vec::with_capacity(m * 2 + n);
    let mut index: Vec<(u64, u64)> = Vec::with_capacity(num_blocks + 1);
    let mut edges_done = 0u64;
    for block in 0..num_blocks {
        index.push((payload.len() as u64, edges_done));
        let lo = block * bsz;
        let hi = (lo + bsz).min(n);
        for v in lo..hi {
            let v = v as VertexId;
            let neighbors = graph.neighbors(v);
            let sorted = neighbors.windows(2).all(|w| w[0] <= w[1]);
            push_varint(
                &mut payload,
                (neighbors.len() as u64) << 1 | u64::from(sorted),
            );
            if sorted {
                let mut prev = 0u64;
                for (i, &d) in neighbors.iter().enumerate() {
                    let d = u64::from(d);
                    push_varint(&mut payload, if i == 0 { d } else { d - prev });
                    prev = d;
                }
            } else {
                for &d in neighbors {
                    push_varint(&mut payload, u64::from(d));
                }
            }
            if graph.is_weighted() {
                for &w in graph.edge_weights(v).unwrap_or(&[]) {
                    push_varint(&mut payload, u64::from(w));
                }
            }
            edges_done += neighbors.len() as u64;
        }
    }
    index.push((payload.len() as u64, edges_done));

    let mut out = Vec::with_capacity(HEADER_LEN + index.len() * INDEX_ENTRY_LEN + payload.len());
    out.extend_from_slice(PACKED_MAGIC);
    out.extend_from_slice(&PACKED_VERSION.to_le_bytes());
    out.extend_from_slice(&u32::from(graph.is_weighted()).to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(m as u64).to_le_bytes());
    out.extend_from_slice(&block_size.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes()); // checksum patched below
    for (off, first_edge) in &index {
        out.extend_from_slice(&off.to_le_bytes());
        out.extend_from_slice(&first_edge.to_le_bytes());
    }
    out.extend_from_slice(&payload);
    let sum = checksum64(&out[HEADER_LEN..]);
    out[48..56].copy_from_slice(&sum.to_le_bytes());
    out
}

/// Packs `graph` and writes the container to `path`, returning the number
/// of bytes written.
///
/// The bytes go to a sibling temporary file that is then renamed over
/// `path`, so a reader that has the old container mapped keeps the old
/// file: it is never truncated or rewritten under the mapping.
///
/// # Errors
///
/// Returns [`GraphError::Io`] on filesystem failures.
pub fn write_packed<P: AsRef<Path>>(
    graph: &Csr,
    path: P,
    block_size: u32,
) -> Result<u64, GraphError> {
    static WRITES: AtomicU64 = AtomicU64::new(0);
    let path = path.as_ref();
    let bytes = pack_to_vec(graph, block_size);
    let mut sibling = path.as_os_str().to_owned();
    sibling.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        WRITES.fetch_add(1, Ordering::Relaxed)
    ));
    let sibling = PathBuf::from(sibling);
    std::fs::write(&sibling, &bytes)
        .and_then(|()| std::fs::rename(&sibling, path))
        .map_err(|e| {
            let _ = std::fs::remove_file(&sibling);
            io_err(path, e)
        })?;
    Ok(bytes.len() as u64)
}

#[cfg(unix)]
mod map {
    //! Minimal read-only `mmap` binding against the platform libc (the
    //! toolchain links libc through std already; no new dependency).

    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    pub struct Map {
        ptr: *mut core::ffi::c_void,
        len: usize,
    }

    // The region is private, read-only, and owned until Drop.
    unsafe impl Send for Map {}
    unsafe impl Sync for Map {}

    impl Map {
        pub fn of_file(file: &File, len: usize) -> std::io::Result<Map> {
            if len == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "cannot map an empty file",
                ));
            }
            // SAFETY: anonymous address, read-only private mapping of a
            // file descriptor we hold open; failure is reported as
            // MAP_FAILED (-1) and checked below.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(Map { ptr, len })
        }

        pub fn bytes(&self) -> &[u8] {
            // SAFETY: ptr/len describe a live private read-only mapping.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Map {
        fn drop(&mut self) {
            // SAFETY: unmapping the exact region mapped in `of_file`.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

enum Storage {
    Heap(Vec<u8>),
    #[cfg(unix)]
    Mapped(map::Map),
}

impl Storage {
    fn bytes(&self) -> &[u8] {
        match self {
            Storage::Heap(v) => v,
            #[cfg(unix)]
            Storage::Mapped(m) => m.bytes(),
        }
    }
}

/// The graph a caller of [`PackedCsr::read_csr`] expects a container to
/// hold. It is compared with the header before any block is decoded, so a
/// memory budget planned for this shape holds whatever file is named.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedShape {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Whether per-edge weights are stored.
    pub weighted: bool,
}

impl std::fmt::Display for PackedShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = if self.weighted {
            "weighted"
        } else {
            "unweighted"
        };
        write!(f, "{} vertices, {kind}", self.num_vertices)
    }
}

/// An opened packed container, memory-mapped (or heap-resident), whose
/// header, checksum and block index have been checked. Its blocks are read
/// only through the checked decode of [`PackedCsr::to_csr`].
///
/// # Example
///
/// ```
/// use scalagraph_graph::{generators, packed, Csr, PackedCsr, PackedShape};
///
/// let g = Csr::from_edges(64, &generators::uniform(64, 256, 7));
/// let bytes = packed::pack_to_vec(&g, 16);
/// let shape = PackedShape { num_vertices: 64, weighted: false };
/// assert_eq!(PackedCsr::csr_from_bytes(bytes, shape).unwrap(), g);
/// ```
pub struct PackedCsr {
    data: Storage,
    num_vertices: usize,
    num_edges: usize,
    weighted: bool,
    block_size: usize,
    num_blocks: usize,
}

impl PackedCsr {
    /// Opens a container, memory-mapping it when the platform allows
    /// (falling back to a heap read otherwise), and checks its header, body
    /// checksum and block index. The blocks are checked as
    /// [`PackedCsr::to_csr`] decodes them.
    ///
    /// # Errors
    ///
    /// [`GraphError::Io`] on filesystem failures, [`GraphError::PackedFormat`]
    /// for structural corruption (bad magic/version, truncation, index
    /// inconsistencies), and [`GraphError::PackedChecksum`] when the body
    /// fails verification.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<PackedCsr, GraphError> {
        Self::parse(Self::load(path.as_ref())?)
    }

    /// Reads a container and decodes it into a [`Csr`]: [`PackedCsr::open`],
    /// then a refusal of a header whose shape is not `expect`, then
    /// [`PackedCsr::to_csr`].
    ///
    /// # Errors
    ///
    /// Those of [`PackedCsr::open`] and [`PackedCsr::to_csr`], plus
    /// [`GraphError::PackedShape`] when the header declares another shape
    /// than `expect`.
    pub fn read_csr<P: AsRef<Path>>(path: P, expect: PackedShape) -> Result<Csr, GraphError> {
        Self::open(path)?.decode_as(expect)
    }

    /// [`PackedCsr::read_csr`] on a container already resident in memory.
    ///
    /// # Errors
    ///
    /// Same as [`PackedCsr::read_csr`], minus the I/O class.
    pub fn csr_from_bytes(bytes: Vec<u8>, expect: PackedShape) -> Result<Csr, GraphError> {
        Self::parse(Storage::Heap(bytes))?.decode_as(expect)
    }

    fn decode_as(&self, expect: PackedShape) -> Result<Csr, GraphError> {
        let found = PackedShape {
            num_vertices: self.num_vertices,
            weighted: self.weighted,
        };
        if found != expect {
            return Err(GraphError::PackedShape {
                detail: format!("the header declares {found}; the reader expects {expect}"),
            });
        }
        self.to_csr()
    }

    fn load(path: &Path) -> Result<Storage, GraphError> {
        let file = File::open(path).map_err(|e| io_err(path, e))?;
        let len = file.metadata().map_err(|e| io_err(path, e))?.len();
        if len > usize::MAX as u64 {
            return Err(format_err("container larger than the address space"));
        }
        Self::map_or_read(&file, len as usize, path)
    }

    #[cfg(unix)]
    fn map_or_read(file: &File, len: usize, path: &Path) -> Result<Storage, GraphError> {
        match map::Map::of_file(file, len) {
            Ok(m) => Ok(Storage::Mapped(m)),
            // A filesystem without mmap support degrades to a heap read;
            // the checks and the decode are identical either way.
            Err(_) => Self::read_heap(file, len, path),
        }
    }

    #[cfg(not(unix))]
    fn map_or_read(file: &File, len: usize, path: &Path) -> Result<Storage, GraphError> {
        Self::read_heap(file, len, path)
    }

    fn read_heap(mut file: &File, len: usize, path: &Path) -> Result<Storage, GraphError> {
        let mut buf = Vec::with_capacity(len);
        file.read_to_end(&mut buf).map_err(|e| io_err(path, e))?;
        Ok(Storage::Heap(buf))
    }

    /// Header, checksum and block-index validation. The blocks themselves
    /// are checked by [`to_csr`](Self::to_csr), the only reader of them.
    fn parse(data: Storage) -> Result<PackedCsr, GraphError> {
        let bytes = data.bytes();
        if bytes.len() < HEADER_LEN {
            return Err(format_err(format!(
                "container is {} bytes, shorter than the {HEADER_LEN}-byte header",
                bytes.len()
            )));
        }
        let u32_at = |off: usize| {
            let mut b = [0u8; 4];
            b.copy_from_slice(&bytes[off..off + 4]);
            u32::from_le_bytes(b)
        };
        let u64_at = |off: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[off..off + 8]);
            u64::from_le_bytes(b)
        };
        if &bytes[..8] != PACKED_MAGIC {
            return Err(format_err("bad magic: not a packed CSR container"));
        }
        let version = u32_at(8);
        if version != PACKED_VERSION {
            return Err(format_err(format!(
                "unsupported container version {version} (this build reads {PACKED_VERSION})"
            )));
        }
        let flags = u32_at(12);
        if flags & !FLAG_WEIGHTED != 0 {
            return Err(format_err(format!("unknown flag bits {flags:#x}")));
        }
        let num_vertices = u64_at(16);
        let num_edges = u64_at(24);
        let block_size = u32_at(32);
        if block_size == 0 {
            return Err(format_err("block size must be positive"));
        }
        if u32_at(36) != 0 {
            return Err(format_err("reserved header field must be zero"));
        }
        let payload_len = u64_at(40);
        let declared_sum = u64_at(48);
        if num_vertices > u64::from(u32::MAX) {
            return Err(format_err(format!(
                "{num_vertices} vertices exceed the 32-bit id space"
            )));
        }
        // Every vertex costs at least its degree-header byte and every edge
        // at least one id byte; the decode sizes its arrays by these counts.
        if u128::from(num_vertices) + u128::from(num_edges) > u128::from(payload_len) {
            return Err(format_err(format!(
                "{num_vertices} vertices and {num_edges} edges cannot fit a {payload_len}-byte payload"
            )));
        }
        let num_blocks = num_vertices.div_ceil(u64::from(block_size));
        // u128 keeps a hostile header from overflowing the size check.
        let expected_len = HEADER_LEN as u128
            + (u128::from(num_blocks) + 1) * INDEX_ENTRY_LEN as u128
            + u128::from(payload_len);
        if bytes.len() as u128 != expected_len {
            return Err(format_err(format!(
                "header declares {expected_len} bytes but the container is {} bytes",
                bytes.len()
            )));
        }
        let found_sum = checksum64(&bytes[HEADER_LEN..]);
        if found_sum != declared_sum {
            return Err(GraphError::PackedChecksum {
                expected: declared_sum,
                found: found_sum,
            });
        }

        let packed = PackedCsr {
            num_vertices: num_vertices as usize,
            num_edges: num_edges as usize,
            weighted: flags & FLAG_WEIGHTED != 0,
            block_size: block_size as usize,
            num_blocks: num_blocks as usize,
            data,
        };
        packed.validate_index(payload_len)?;
        Ok(packed)
    }

    fn index_entry(&self, i: usize) -> (u64, u64) {
        let off = HEADER_LEN + i * INDEX_ENTRY_LEN;
        let bytes = self.data.bytes();
        let mut a = [0u8; 8];
        let mut b = [0u8; 8];
        a.copy_from_slice(&bytes[off..off + 8]);
        b.copy_from_slice(&bytes[off + 8..off + 16]);
        (u64::from_le_bytes(a), u64::from_le_bytes(b))
    }

    fn payload(&self) -> &[u8] {
        &self.data.bytes()[HEADER_LEN + (self.num_blocks + 1) * INDEX_ENTRY_LEN..]
    }

    fn validate_index(&self, payload_len: u64) -> Result<(), GraphError> {
        let (first_off, first_edge) = self.index_entry(0);
        if first_off != 0 || first_edge != 0 {
            return Err(format_err("block index must start at offset 0 / edge 0"));
        }
        let mut prev = (first_off, first_edge);
        for i in 1..=self.num_blocks {
            let cur = self.index_entry(i);
            if cur.0 < prev.0 || cur.1 < prev.1 {
                return Err(format_err(format!("block index entry {i} is not monotone")));
            }
            if cur.1 - prev.1 > u64::from(u32::MAX) {
                return Err(format_err(format!("block {} spans too many edges", i - 1)));
            }
            prev = cur;
        }
        let (last_off, last_edge) = self.index_entry(self.num_blocks);
        if last_off != payload_len {
            return Err(format_err(format!(
                "index sentinel offset {last_off} does not cover the {payload_len}-byte payload"
            )));
        }
        if last_edge != self.num_edges as u64 {
            return Err(format_err(format!(
                "index sentinel counts {last_edge} edges but the header declares {}",
                self.num_edges
            )));
        }
        Ok(())
    }

    /// Decodes and checks `block`, appending its vertices' end offsets,
    /// neighbors and weights to the [`Csr`] arrays [`to_csr`](Self::to_csr)
    /// is building: varint well-formedness, per-block edge accounting,
    /// neighbor range, weight width, exact section consumption. The pushes
    /// never pass the capacity `to_csr` reserved from the header, because a
    /// block may not encode more than its indexed edge count.
    fn decode_block_into(
        &self,
        block: usize,
        offsets: &mut Vec<u64>,
        neighbors: &mut Vec<VertexId>,
        weights: &mut Vec<Weight>,
    ) -> Result<(), GraphError> {
        let (start, first_edge) = self.index_entry(block);
        let (end, next_edge) = self.index_entry(block + 1);
        let expected_edges = (next_edge - first_edge) as usize;
        let lo = block * self.block_size;
        let hi = (lo + self.block_size).min(self.num_vertices);
        let section = &self.payload()[start as usize..end as usize];

        let base = neighbors.len();
        let n = self.num_vertices as u64;
        let mut pos = 0usize;
        for _ in lo..hi {
            let header = read_varint(section, &mut pos)?;
            let degree = (header >> 1) as usize;
            let sorted = header & 1 == 1;
            if neighbors.len() - base + degree > expected_edges {
                return Err(format_err(format!(
                    "block {block} encodes more than its {expected_edges} indexed edges"
                )));
            }
            // A run is range-checked once, on its maximum: ids in a sorted
            // run are non-decreasing (gaps are unsigned), so the last one.
            let mut max = 0u64;
            if sorted {
                for i in 0..degree {
                    let raw = read_varint(section, &mut pos)?;
                    max = if i == 0 {
                        raw
                    } else {
                        max.checked_add(raw)
                            .ok_or_else(|| format_err("delta-encoded neighbor id overflows"))?
                    };
                    neighbors.push(max as VertexId);
                }
            } else {
                for _ in 0..degree {
                    let id = read_varint(section, &mut pos)?;
                    max = max.max(id);
                    neighbors.push(id as VertexId);
                }
            }
            if degree > 0 && max >= n {
                return Err(GraphError::VertexOutOfRange {
                    vertex: max,
                    num_vertices: n,
                });
            }
            if self.weighted {
                let mut wmax = 0u64;
                for _ in 0..degree {
                    let w = read_varint(section, &mut pos)?;
                    wmax = wmax.max(w);
                    weights.push(w as Weight);
                }
                if wmax > u64::from(u32::MAX) {
                    return Err(format_err("edge weight exceeds 32 bits"));
                }
            }
            offsets.push(neighbors.len() as u64);
        }
        if pos != section.len() {
            return Err(format_err(format!(
                "block {block} leaves {} undecoded payload bytes",
                section.len() - pos
            )));
        }
        let decoded = neighbors.len() - base;
        if decoded != expected_edges {
            return Err(format_err(format!(
                "block {block} decodes {decoded} edges but the index promises {expected_edges}"
            )));
        }
        Ok(())
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Whether per-edge weights are stored.
    pub fn is_weighted(&self) -> bool {
        self.weighted
    }

    /// Vertices per block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of payload blocks.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Total container size in bytes (header + index + payload).
    pub fn container_bytes(&self) -> u64 {
        self.data.bytes().len() as u64
    }

    /// Decodes the container into an in-memory [`Csr`], bit-identical
    /// (offsets, adjacency order, weights) to the graph it was packed from,
    /// checking every block as it goes.
    ///
    /// # Errors
    ///
    /// [`GraphError::PackedFormat`] for a damaged block (malformed varint,
    /// edge counts that disagree with the index, leftover bytes, a weight
    /// over 32 bits), [`GraphError::VertexOutOfRange`] for a neighbor id
    /// past the vertex count, and the [`Csr::from_raw_parts`] error class if
    /// the decoded arrays are structurally inconsistent.
    pub fn to_csr(&self) -> Result<Csr, GraphError> {
        let mut offsets = Vec::with_capacity(self.num_vertices + 1);
        let mut neighbors = Vec::with_capacity(self.num_edges);
        let mut weights = Vec::with_capacity(if self.weighted { self.num_edges } else { 0 });
        offsets.push(0u64);
        for b in 0..self.num_blocks {
            self.decode_block_into(b, &mut offsets, &mut neighbors, &mut weights)?;
        }
        Csr::from_raw_parts(offsets, neighbors, self.weighted.then_some(weights))
    }
}

impl std::fmt::Debug for PackedCsr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedCsr")
            .field("num_vertices", &self.num_vertices)
            .field("num_edges", &self.num_edges)
            .field("weighted", &self.weighted)
            .field("block_size", &self.block_size)
            .field("container_bytes", &self.container_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, Edge, EdgeList};

    fn patch_checksum(bytes: &mut [u8]) {
        let sum = checksum64(&bytes[HEADER_LEN..]);
        bytes[48..56].copy_from_slice(&sum.to_le_bytes());
    }

    fn shape_of(g: &Csr) -> PackedShape {
        PackedShape {
            num_vertices: g.num_vertices(),
            weighted: g.is_weighted(),
        }
    }

    fn decode(bytes: Vec<u8>, g: &Csr) -> Result<Csr, GraphError> {
        PackedCsr::csr_from_bytes(bytes, shape_of(g))
    }

    fn sample(weighted: bool) -> Csr {
        let mut list = EdgeList::new(100);
        for e in generators::power_law(100, 900, 0.8, 17) {
            list.push(e);
        }
        if weighted {
            list.randomize_weights(255, 3);
        }
        Csr::from_edge_list(&list)
    }

    #[test]
    fn roundtrip_unweighted_and_weighted() {
        for weighted in [false, true] {
            let g = sample(weighted);
            for block_size in [1u32, 7, 64, 4096] {
                let back = decode(pack_to_vec(&g, block_size), &g).unwrap();
                assert_eq!(back, g, "block size {block_size}");
            }
        }
    }

    #[test]
    fn sorted_adjacency_delta_encodes_smaller() {
        // Same multiset of edges, sorted vs reverse-sorted adjacency.
        let n = 2000usize;
        let mut fwd = Vec::new();
        for v in 0..n as VertexId {
            for k in 1..=8u32 {
                fwd.push(Edge::new(v, (v + k * 7) % n as VertexId));
            }
        }
        let mut sorted_edges = fwd.clone();
        sorted_edges.sort();
        let mut reversed = sorted_edges.clone();
        reversed.reverse();
        let g_sorted = Csr::from_edges(n, &sorted_edges);
        let g_unsorted = Csr::from_edges(n, &reversed);
        let p_sorted = pack_to_vec(&g_sorted, DEFAULT_BLOCK_SIZE);
        let p_unsorted = pack_to_vec(&g_unsorted, DEFAULT_BLOCK_SIZE);
        assert!(
            p_sorted.len() < p_unsorted.len(),
            "delta path must beat raw varints: {} vs {}",
            p_sorted.len(),
            p_unsorted.len()
        );
        // Both still round-trip exactly.
        assert_eq!(decode(p_unsorted, &g_unsorted).unwrap(), g_unsorted);
    }

    #[test]
    fn empty_and_edgeless_graphs_roundtrip() {
        for g in [Csr::from_edges(0, &[]), Csr::from_edges(5, &[])] {
            assert_eq!(decode(pack_to_vec(&g, 4), &g).unwrap(), g);
        }
    }

    #[test]
    fn file_roundtrip_via_mmap_open() {
        let g = sample(true);
        let dir = std::env::temp_dir().join("scalagraph_packed_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{}_roundtrip.sgpk", std::process::id()));
        let written = write_packed(&g, &path, DEFAULT_BLOCK_SIZE).unwrap();
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());
        let p = PackedCsr::open(&path).unwrap();
        assert_eq!(p.container_bytes(), written);
        assert_eq!(p.to_csr().unwrap(), g);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn open_missing_file_is_io_error() {
        let err = PackedCsr::open("/nonexistent/scalagraph.sgpk").unwrap_err();
        assert!(matches!(err, GraphError::Io { .. }), "{err}");
    }

    #[test]
    fn truncation_yields_typed_errors_never_panics() {
        let g = sample(false);
        let bytes = pack_to_vec(&g, 8);
        for cut in 0..bytes.len() {
            let err = decode(bytes[..cut].to_vec(), &g).unwrap_err();
            assert!(
                matches!(
                    err,
                    GraphError::PackedFormat { .. } | GraphError::PackedChecksum { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let g = sample(true);
        let bytes = pack_to_vec(&g, 8);
        for pos in [HEADER_LEN, HEADER_LEN + 16, bytes.len() - 1] {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x40;
            let err = decode(corrupt, &g).unwrap_err();
            assert!(
                matches!(err, GraphError::PackedChecksum { .. }),
                "flip at {pos}: {err}"
            );
        }
    }

    #[test]
    fn out_of_range_neighbor_is_typed_even_with_valid_checksum() {
        // Pack a one-edge graph, then re-point the neighbor id out of range
        // and fix the checksum: the block decode must catch it.
        let g = Csr::from_edges(2, &[Edge::new(0, 1)]);
        let mut bytes = pack_to_vec(&g, 4);
        // Payload is [header(v0), id(=1), header(v1)]; the id byte is the
        // second-to-last byte of the container.
        let id_byte = bytes.len() - 2;
        assert_eq!(bytes[id_byte], 1, "neighbor id byte");
        bytes[id_byte] = 9; // 9 >= num_vertices(2)
        patch_checksum(&mut bytes);
        let err = decode(bytes, &g).unwrap_err();
        assert!(
            matches!(err, GraphError::VertexOutOfRange { vertex: 9, .. }),
            "{err}"
        );
    }

    #[test]
    fn bad_magic_version_and_flags_are_typed() {
        let g = sample(false);
        let good = pack_to_vec(&g, 8);

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            decode(bad_magic, &g).unwrap_err(),
            GraphError::PackedFormat { .. }
        ));

        let mut bad_version = good.clone();
        bad_version[8..12].copy_from_slice(&99u32.to_le_bytes());
        let err = decode(bad_version, &g).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");

        let mut bad_flags = good.clone();
        bad_flags[12..16].copy_from_slice(&0xffu32.to_le_bytes());
        assert!(matches!(
            decode(bad_flags, &g).unwrap_err(),
            GraphError::PackedFormat { .. }
        ));

        let mut huge_counts = good;
        huge_counts[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = decode(huge_counts, &g).unwrap_err();
        assert!(matches!(err, GraphError::PackedFormat { .. }), "{err}");
    }

    #[test]
    fn checksum_is_length_sensitive() {
        assert_ne!(checksum64(&[0u8; 8]), checksum64(&[0u8; 16]));
        assert_ne!(checksum64(b"abc"), checksum64(b"abd"));
        assert_ne!(checksum64(&[]), 0);
    }

    #[test]
    fn varint_rejects_overlong_encodings() {
        let mut pos = 0;
        let overlong = [0xffu8; 11];
        assert!(read_varint(&overlong, &mut pos).is_err());
        let mut pos = 0;
        let max = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        assert_eq!(read_varint(&max, &mut pos).unwrap(), u64::MAX);
    }
}
