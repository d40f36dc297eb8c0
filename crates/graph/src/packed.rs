//! Delta+varint compressed, memory-mappable CSR container.
//!
//! The in-memory [`Csr`] spends 8 bytes per vertex (offset) and 4 bytes per
//! edge; at paper scale (Table III: Twitter = 1.47B edges) that is ~6 GiB
//! rebuilt from scratch on every process start. This module trades decode
//! work for footprint the way bandwidth-efficient graph systems (GraphScale,
//! Ligra+) do: adjacency lists are varint-encoded — delta-encoded first when
//! a vertex's neighbors are sorted — behind a coarse *block index*, and the
//! whole container can be memory-mapped so opening a packed graph costs
//! header + index validation, not an O(edges) rebuild.
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
//! [`PackedCsr::open`] validates the header, checksums the body, and walks
//! every block's varint structure (including neighbor range checks) before
//! returning, so truncation, bit rot, and hostile headers all surface as
//! typed [`GraphError`]s at open — after which the read API cannot fail.
//! The header's vertex and edge counts are bounded by the payload length
//! (each costs at least one byte), so no header can make a reader allocate
//! more than the container's own size.
//! [`PackedCsr::read_csr`], for callers that only want the decoded [`Csr`],
//! makes the same header checks, refuses a container of another
//! [`PackedShape`] than the caller expects, and lets the checked decode
//! stand in for the walk, rejecting the same damage with the same errors.
//! Reads decode one block at a time into a pooled scratch buffer (interior
//! mutability; keep one `PackedCsr` per thread).

use crate::{Csr, Edge, GraphError, GraphRead, VertexId, Weight};
use std::cell::{Ref, RefCell};
use std::fs::File;
use std::io::Read as _;
use std::path::Path;

/// Magic bytes prefixing the packed CSR container.
pub const PACKED_MAGIC: &[u8; 8] = b"SGPKCSR1";

/// Container format version written by this build.
pub const PACKED_VERSION: u32 = 1;

/// Default vertices per block: 1024 keeps the index at 16 KiB per million
/// vertices (resident even for Twitter-scale graphs) while a decoded block
/// (~1K adjacency lists) still fits comfortably in L2 scratch.
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

/// Varint decode tuned for the open-time validation walk: one unaligned
/// 32-bit load resolves any varint that terminates within 4 bytes (every
/// delta gap and almost every id in practice), falling back to
/// [`read_varint`] near the section tail, for longer encodings, and for
/// every error case — so the two functions accept and reject *exactly*
/// the same byte sequences with the same values (overlong-but-terminated
/// encodings included).
#[inline]
fn scan_varint(data: &[u8], pos: &mut usize) -> Result<u64, GraphError> {
    if let Some(chunk) = data.get(*pos..*pos + 4) {
        let w = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        // A varint ends at the first byte whose continuation bit is clear.
        // A compare chain beats a branchless trailing_zeros extraction
        // here: within one graph the delta gaps cluster around one length
        // (`n / avg_degree`), so these branches predict near-perfectly.
        if w & 0x80 == 0 {
            *pos += 1;
            return Ok(u64::from(w & 0x7f));
        }
        if w & 0x8000 == 0 {
            *pos += 2;
            return Ok(u64::from(w & 0x7f) | u64::from((w >> 8) & 0x7f) << 7);
        }
        if w & 0x0080_0000 == 0 {
            *pos += 3;
            return Ok(u64::from(w & 0x7f)
                | u64::from((w >> 8) & 0x7f) << 7
                | u64::from((w >> 16) & 0x7f) << 14);
        }
        if w & 0x8000_0000 == 0 {
            *pos += 4;
            return Ok(u64::from(w & 0x7f)
                | u64::from((w >> 8) & 0x7f) << 7
                | u64::from((w >> 16) & 0x7f) << 14
                | u64::from((w >> 24) & 0x7f) << 21);
        }
    }
    read_varint(data, pos)
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
/// # Errors
///
/// Returns [`GraphError::Io`] on filesystem failures.
pub fn write_packed<P: AsRef<Path>>(
    graph: &Csr,
    path: P,
    block_size: u32,
) -> Result<u64, GraphError> {
    let path = path.as_ref();
    let bytes = pack_to_vec(graph, block_size);
    std::fs::write(path, &bytes).map_err(|e| io_err(path, e))?;
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

/// One decoded block, reused as pooled scratch across reads.
struct DecodedBlock {
    /// Which block is currently decoded; `usize::MAX` means none.
    block: usize,
    /// Local edge offsets within the block (`verts_in_block + 1` entries).
    prefix: Vec<u32>,
    neighbors: Vec<VertexId>,
    weights: Vec<Weight>,
}

impl DecodedBlock {
    fn empty() -> Self {
        DecodedBlock {
            block: usize::MAX,
            prefix: Vec::new(),
            neighbors: Vec::new(),
            weights: Vec::new(),
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

/// A validated, read-only, block-compressed CSR backed by a memory-mapped
/// (or heap-resident) container.
///
/// # Example
///
/// ```
/// use scalagraph_graph::{generators, packed, Csr};
///
/// let g = Csr::from_edges(64, &generators::uniform(64, 256, 7));
/// let bytes = packed::pack_to_vec(&g, 16);
/// let p = packed::PackedCsr::from_bytes(bytes).unwrap();
/// assert_eq!(p.num_vertices(), 64);
/// assert_eq!(&*p.neighbors(3), g.neighbors(3));
/// assert_eq!(p.to_csr().unwrap(), g);
/// ```
pub struct PackedCsr {
    data: Storage,
    num_vertices: usize,
    num_edges: usize,
    weighted: bool,
    block_size: usize,
    num_blocks: usize,
    scratch: RefCell<DecodedBlock>,
}

impl PackedCsr {
    /// Opens and fully validates a packed container, memory-mapping it when
    /// the platform allows (falling back to a heap read otherwise).
    ///
    /// # Errors
    ///
    /// [`GraphError::Io`] on filesystem failures, [`GraphError::PackedFormat`]
    /// for structural corruption (bad magic/version, truncation, index or
    /// varint inconsistencies, out-of-range neighbor ids), and
    /// [`GraphError::PackedChecksum`] when the body fails verification.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<PackedCsr, GraphError> {
        Self::parse(Self::load(path.as_ref())?)?.certify()
    }

    /// Reads a container and decodes it straight into a [`Csr`], for
    /// callers that want the graph rather than the container. Applies the
    /// header, checksum and index checks of [`PackedCsr::open`], refuses a
    /// header whose shape is not `expect`, then runs the checked block
    /// decode of [`PackedCsr::to_csr`] — which rejects the same damage with
    /// the same error as `open`'s certification walk, so the walk is
    /// skipped instead of checking every block twice. No uncertified
    /// container is ever returned.
    ///
    /// # Errors
    ///
    /// Same as [`PackedCsr::open`], plus [`GraphError::PackedShape`] when
    /// the header declares another shape than `expect`.
    pub fn read_csr<P: AsRef<Path>>(path: P, expect: PackedShape) -> Result<Csr, GraphError> {
        Self::parse(Self::load(path.as_ref())?)?.decode_as(expect)
    }

    /// [`PackedCsr::read_csr`] on a container already resident in memory.
    ///
    /// # Errors
    ///
    /// Same as [`PackedCsr::from_bytes`], plus [`GraphError::PackedShape`].
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
            // validation and the read API are identical either way.
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

    /// Opens a container already resident in memory (tests, in-process
    /// pack-then-load pipelines). Identical validation to [`PackedCsr::open`].
    ///
    /// # Errors
    ///
    /// Same as [`PackedCsr::open`], minus the I/O class.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<PackedCsr, GraphError> {
        Self::parse(Storage::Heap(bytes))?.certify()
    }

    /// Header, checksum and block-index validation. The blocks themselves
    /// are not yet checked, so the result must go through
    /// [`certify`](Self::certify) or straight into [`to_csr`](Self::to_csr)
    /// before anyone reads it.
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
            scratch: RefCell::new(DecodedBlock::empty()),
        };
        packed.validate_index(payload_len)?;
        Ok(packed)
    }

    /// Walks every block once so the read API cannot fail afterwards:
    /// varint structure, per-block edge counts, and neighbor ranges are
    /// all certified here. The walk is structure-only (`verify_block`): it
    /// decodes the exact same stream `decode_block_into` does but
    /// materializes nothing, which keeps cold-open latency at varint-scan
    /// speed rather than Vec-build speed.
    fn certify(self) -> Result<PackedCsr, GraphError> {
        for b in 0..self.num_blocks {
            self.verify_block(b)?;
        }
        Ok(self)
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

    /// Structure-only certification of one block: applies every check
    /// [`PackedCsr::decode_block_into`] applies, in the same order —
    /// varint well-formedness, per-block edge accounting, neighbor range,
    /// weight width, exact section consumption — without building the
    /// decoded arrays. Ids in a `sorted` run are non-decreasing (gaps are
    /// unsigned), so the run's last id is its maximum and one range check
    /// certifies the whole run; unsorted runs and weights track a running
    /// maximum the same way. Both paths therefore reject the same damage
    /// with the same error.
    fn verify_block(&self, block: usize) -> Result<(), GraphError> {
        let (start, first_edge) = self.index_entry(block);
        let (end, next_edge) = self.index_entry(block + 1);
        let expected_edges = (next_edge - first_edge) as usize;
        let lo = block * self.block_size;
        let hi = (lo + self.block_size).min(self.num_vertices);
        let section = &self.payload()[start as usize..end as usize];

        let n = self.num_vertices as u64;
        let mut pos = 0usize;
        let mut decoded = 0usize;
        for _ in lo..hi {
            let header = scan_varint(section, &mut pos)?;
            let degree = (header >> 1) as usize;
            let sorted = header & 1 == 1;
            if decoded + degree > expected_edges {
                return Err(format_err(format!(
                    "block {block} encodes more than its {expected_edges} indexed edges"
                )));
            }
            if sorted {
                if degree > 0 {
                    let mut id = scan_varint(section, &mut pos)?;
                    for _ in 1..degree {
                        let raw = scan_varint(section, &mut pos)?;
                        id = id
                            .checked_add(raw)
                            .ok_or_else(|| format_err("delta-encoded neighbor id overflows"))?;
                    }
                    if id >= n {
                        return Err(GraphError::VertexOutOfRange {
                            vertex: id,
                            num_vertices: n,
                        });
                    }
                }
            } else {
                let mut max = 0u64;
                for _ in 0..degree {
                    max = max.max(scan_varint(section, &mut pos)?);
                }
                if degree > 0 && max >= n {
                    return Err(GraphError::VertexOutOfRange {
                        vertex: max,
                        num_vertices: n,
                    });
                }
            }
            if self.weighted {
                let mut wmax = 0u64;
                for _ in 0..degree {
                    wmax = wmax.max(scan_varint(section, &mut pos)?);
                }
                if wmax > u64::from(u32::MAX) {
                    return Err(format_err("edge weight exceeds 32 bits"));
                }
            }
            decoded += degree;
        }
        if pos != section.len() {
            return Err(format_err(format!(
                "block {block} leaves {} undecoded payload bytes",
                section.len() - pos
            )));
        }
        if decoded != expected_edges {
            return Err(format_err(format!(
                "block {block} decodes {decoded} edges but the index promises {expected_edges}"
            )));
        }
        Ok(())
    }

    fn decode_block_into(&self, block: usize, out: &mut DecodedBlock) -> Result<(), GraphError> {
        let (start, first_edge) = self.index_entry(block);
        let (end, next_edge) = self.index_entry(block + 1);
        let expected_edges = (next_edge - first_edge) as usize;
        let lo = block * self.block_size;
        let hi = (lo + self.block_size).min(self.num_vertices);
        let section = &self.payload()[start as usize..end as usize];

        out.block = usize::MAX;
        out.prefix.clear();
        out.neighbors.clear();
        out.weights.clear();
        out.prefix.reserve(hi - lo + 1);
        out.neighbors.reserve(expected_edges);
        out.prefix.push(0);

        let n = self.num_vertices as u64;
        let mut pos = 0usize;
        for _ in lo..hi {
            let header = read_varint(section, &mut pos)?;
            let degree = (header >> 1) as usize;
            let sorted = header & 1 == 1;
            if out.neighbors.len() + degree > expected_edges {
                return Err(format_err(format!(
                    "block {block} encodes more than its {expected_edges} indexed edges"
                )));
            }
            // Range checks run once per run, on its maximum, exactly where
            // `verify_block` makes them, so both report the same error.
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
                    out.neighbors.push(max as VertexId);
                }
            } else {
                for _ in 0..degree {
                    let id = read_varint(section, &mut pos)?;
                    max = max.max(id);
                    out.neighbors.push(id as VertexId);
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
                    out.weights.push(w as Weight);
                }
                if wmax > u64::from(u32::MAX) {
                    return Err(format_err("edge weight exceeds 32 bits"));
                }
            }
            out.prefix.push(out.neighbors.len() as u32);
        }
        if pos != section.len() {
            return Err(format_err(format!(
                "block {block} leaves {} undecoded payload bytes",
                section.len() - pos
            )));
        }
        if out.neighbors.len() != expected_edges {
            return Err(format_err(format!(
                "block {block} decodes {} edges but the index promises {expected_edges}",
                out.neighbors.len()
            )));
        }
        out.block = block;
        Ok(())
    }

    /// Decodes `block` into the pooled scratch unless it is already there.
    fn ensure_block(&self, block: usize) {
        if self.scratch.borrow().block == block {
            return;
        }
        let mut scratch = self.scratch.borrow_mut();
        match self.decode_block_into(block, &mut scratch) {
            Ok(()) => {}
            // Every block was certified at open; failing here means the
            // backing file mutated under the mapping.
            Err(e) => panic!("packed block {block} failed to decode after open-time validation (backing file changed?): {e}"),
        }
    }

    fn locate(&self, v: VertexId) -> (usize, usize) {
        let v = v as usize;
        assert!(v < self.num_vertices, "vertex {v} out of range");
        (v / self.block_size, v % self.block_size)
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

    /// Out-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn out_degree(&self, v: VertexId) -> usize {
        let (block, local) = self.locate(v);
        self.ensure_block(block);
        let s = self.scratch.borrow();
        (s.prefix[local + 1] - s.prefix[local]) as usize
    }

    /// Index range of `v`'s edges in the global edge order — identical to
    /// [`Csr::edge_range`] on the graph this container was packed from.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn edge_range(&self, v: VertexId) -> std::ops::Range<usize> {
        let (block, local) = self.locate(v);
        let (_, first_edge) = self.index_entry(block);
        self.ensure_block(block);
        let s = self.scratch.borrow();
        let base = first_edge as usize;
        base + s.prefix[local] as usize..base + s.prefix[local + 1] as usize
    }

    /// Destination vertices of `v`'s out-edges, decoded into the pooled
    /// block scratch. The borrow must be dropped before touching a vertex
    /// of a *different* block.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range, or if a previous scratch borrow is
    /// still alive when a different block must be decoded.
    pub fn neighbors(&self, v: VertexId) -> Ref<'_, [VertexId]> {
        let (block, local) = self.locate(v);
        self.ensure_block(block);
        Ref::map(self.scratch.borrow(), |s| {
            &s.neighbors[s.prefix[local] as usize..s.prefix[local + 1] as usize]
        })
    }

    /// Weights of `v`'s out-edges (same discipline as
    /// [`PackedCsr::neighbors`]).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingWeights`] on an unweighted container.
    pub fn edge_weights(&self, v: VertexId) -> Result<Ref<'_, [Weight]>, GraphError> {
        if !self.weighted {
            return Err(GraphError::MissingWeights);
        }
        let (block, local) = self.locate(v);
        self.ensure_block(block);
        Ok(Ref::map(self.scratch.borrow(), |s| {
            &s.weights[s.prefix[local] as usize..s.prefix[local + 1] as usize]
        }))
    }

    /// Fully decodes the container into an in-memory [`Csr`], bit-identical
    /// (offsets, adjacency order, weights) to the graph it was packed from.
    ///
    /// # Errors
    ///
    /// Returns the [`Csr::from_raw_parts`] error class if the decoded
    /// arrays are structurally inconsistent — unreachable for containers
    /// produced by [`pack_to_vec`], kept fallible for defense in depth.
    pub fn to_csr(&self) -> Result<Csr, GraphError> {
        let mut offsets = Vec::with_capacity(self.num_vertices + 1);
        let mut neighbors = Vec::with_capacity(self.num_edges);
        let mut weights = if self.weighted {
            Vec::with_capacity(self.num_edges)
        } else {
            Vec::new()
        };
        offsets.push(0u64);
        let mut scratch = DecodedBlock::empty();
        for b in 0..self.num_blocks {
            match self.decode_block_into(b, &mut scratch) {
                Ok(()) => {}
                Err(e) => return Err(e),
            }
            let verts = scratch.prefix.len() - 1;
            let base = neighbors.len() as u64;
            for local in 0..verts {
                offsets.push(base + u64::from(scratch.prefix[local + 1]));
            }
            neighbors.extend_from_slice(&scratch.neighbors);
            if self.weighted {
                weights.extend_from_slice(&scratch.weights);
            }
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

impl GraphRead for PackedCsr {
    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }

    fn is_weighted(&self) -> bool {
        self.weighted
    }

    fn out_degree(&self, v: VertexId) -> usize {
        PackedCsr::out_degree(self, v)
    }

    fn for_each_edge(&self, visit: &mut dyn FnMut(Edge)) {
        for block in 0..self.num_blocks {
            self.ensure_block(block);
            let s = self.scratch.borrow();
            let lo = block * self.block_size;
            let verts = s.prefix.len() - 1;
            for local in 0..verts {
                let src = (lo + local) as VertexId;
                for i in s.prefix[local] as usize..s.prefix[local + 1] as usize {
                    let w = if self.weighted { s.weights[i] } else { 0 };
                    visit(Edge::weighted(src, s.neighbors[i], w));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, EdgeList};

    fn patch_checksum(bytes: &mut [u8]) {
        let sum = checksum64(&bytes[HEADER_LEN..]);
        bytes[48..56].copy_from_slice(&sum.to_le_bytes());
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
                let p = PackedCsr::from_bytes(pack_to_vec(&g, block_size)).unwrap();
                assert_eq!(p.num_vertices(), g.num_vertices());
                assert_eq!(p.num_edges(), g.num_edges());
                assert_eq!(p.is_weighted(), g.is_weighted());
                assert_eq!(p.to_csr().unwrap(), g, "block size {block_size}");
            }
        }
    }

    #[test]
    fn per_vertex_reads_match_source() {
        let g = sample(true);
        let p = PackedCsr::from_bytes(pack_to_vec(&g, 16)).unwrap();
        for v in g.vertices() {
            assert_eq!(p.out_degree(v), g.out_degree(v));
            assert_eq!(p.edge_range(v), g.edge_range(v));
            assert_eq!(&*p.neighbors(v), g.neighbors(v));
            assert_eq!(&*p.edge_weights(v).unwrap(), g.edge_weights(v).unwrap());
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
        assert_eq!(
            PackedCsr::from_bytes(p_unsorted).unwrap().to_csr().unwrap(),
            g_unsorted
        );
    }

    #[test]
    fn graph_read_for_each_edge_matches_csr() {
        let g = sample(true);
        let p = PackedCsr::from_bytes(pack_to_vec(&g, 32)).unwrap();
        let mut from_packed = Vec::new();
        GraphRead::for_each_edge(&p, &mut |e| from_packed.push(e));
        let from_csr: Vec<Edge> = g.edges().collect();
        assert_eq!(from_packed, from_csr);
    }

    #[test]
    fn empty_and_edgeless_graphs_roundtrip() {
        for g in [Csr::from_edges(0, &[]), Csr::from_edges(5, &[])] {
            let p = PackedCsr::from_bytes(pack_to_vec(&g, 4)).unwrap();
            assert_eq!(p.to_csr().unwrap(), g);
            assert_eq!(p.num_edges(), 0);
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
            let err = PackedCsr::from_bytes(bytes[..cut].to_vec()).unwrap_err();
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
            let err = PackedCsr::from_bytes(corrupt).unwrap_err();
            assert!(
                matches!(err, GraphError::PackedChecksum { .. }),
                "flip at {pos}: {err}"
            );
        }
    }

    #[test]
    fn out_of_range_neighbor_is_typed_even_with_valid_checksum() {
        // Pack a single-vertex self-loop graph, then re-point the neighbor
        // id out of range and fix the checksum: the block walk must catch it.
        let g = Csr::from_edges(2, &[Edge::new(0, 1)]);
        let mut bytes = pack_to_vec(&g, 4);
        // Payload is [header(v0), id(=1), header(v1)]; the id byte is the
        // second-to-last byte of the container.
        let id_byte = bytes.len() - 2;
        assert_eq!(bytes[id_byte], 1, "neighbor id byte");
        bytes[id_byte] = 9; // 9 >= num_vertices(2)
        patch_checksum(&mut bytes);
        let err = PackedCsr::from_bytes(bytes).unwrap_err();
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
            PackedCsr::from_bytes(bad_magic).unwrap_err(),
            GraphError::PackedFormat { .. }
        ));

        let mut bad_version = good.clone();
        bad_version[8..12].copy_from_slice(&99u32.to_le_bytes());
        let err = PackedCsr::from_bytes(bad_version).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");

        let mut bad_flags = good.clone();
        bad_flags[12..16].copy_from_slice(&0xffu32.to_le_bytes());
        assert!(matches!(
            PackedCsr::from_bytes(bad_flags).unwrap_err(),
            GraphError::PackedFormat { .. }
        ));

        let mut huge_counts = good;
        huge_counts[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = PackedCsr::from_bytes(huge_counts).unwrap_err();
        assert!(matches!(err, GraphError::PackedFormat { .. }), "{err}");
    }

    #[test]
    fn checksum_is_length_sensitive() {
        assert_ne!(checksum64(&[0u8; 8]), checksum64(&[0u8; 16]));
        assert_ne!(checksum64(b"abc"), checksum64(b"abd"));
        assert_ne!(checksum64(&[]), 0);
    }

    #[test]
    fn scan_varint_agrees_with_read_varint_on_arbitrary_bytes() {
        // verify_block uses the word-at-a-time scanner while decode uses
        // the byte loop; any divergence would let open certify a payload
        // the read path later rejects (a post-open panic). Fuzz both over
        // random byte soup, encoded values with trailing garbage, and
        // continuation-heavy prefixes.
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let check = |buf: &[u8]| {
            let mut pa = 0usize;
            let mut pb = 0usize;
            let a = read_varint(buf, &mut pa);
            let b = scan_varint(buf, &mut pb);
            match (&a, &b) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(x, y, "value mismatch on {buf:?}");
                    assert_eq!(pa, pb, "position mismatch on {buf:?}");
                }
                (Err(_), Err(_)) => {}
                _ => panic!("outcome mismatch on {buf:?}: {a:?} vs {b:?}"),
            }
        };
        for _ in 0..20_000 {
            let len = (next() % 16) as usize;
            let buf: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            check(&buf);
        }
        for _ in 0..5_000 {
            let mut buf = Vec::new();
            push_varint(&mut buf, next() >> (next() % 64));
            buf.extend((0..(next() % 8) as usize).map(|_| next() as u8));
            check(&buf);
        }
        for k in 0..12 {
            let mut buf = vec![0xffu8; k];
            check(&buf);
            buf.push(0x01);
            check(&buf);
        }
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
