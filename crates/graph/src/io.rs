//! Graph file I/O: the SNAP/Graph500 interchange formats the paper's
//! datasets ship in.
//!
//! * [`read_edge_list`] parses whitespace-separated text edge lists
//!   (`src dst [weight]` per line, `#`/`%` comments) — the format of the
//!   SNAP downloads (Pokec, LiveJournal, Orkut, Twitter).
//! * [`write_edge_list`] writes the same format.
//!
//! Graphs are stored for fast reloads in the packed container of
//! [`crate::packed`].

use crate::{Edge, EdgeList, VertexId};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Reads a whitespace-separated text edge list. Lines starting with `#` or
/// `%` are comments; each data line is `src dst` or `src dst weight`.
/// The vertex count is `max endpoint + 1` unless `num_vertices` widens it.
///
/// # Errors
///
/// Returns an [`io::Error`] on filesystem failures, malformed lines
/// (non-numeric fields, fewer than two fields, endpoints above 32 bits),
/// or an endpoint outside an explicitly supplied `num_vertices`.
pub fn read_edge_list<P: AsRef<Path>>(
    path: P,
    num_vertices: Option<usize>,
) -> io::Result<EdgeList> {
    let file = File::open(path)?;
    let reader = BufReader::new(file);
    let mut edges: Vec<Edge> = Vec::new();
    let mut max_vertex: u64 = 0;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let bad = |what: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: {what}", lineno + 1),
            )
        };
        let src: u64 = it
            .next()
            .ok_or_else(|| bad("missing source"))?
            .parse()
            .map_err(|_| bad("source is not an integer"))?;
        let dst: u64 = it
            .next()
            .ok_or_else(|| bad("missing destination"))?
            .parse()
            .map_err(|_| bad("destination is not an integer"))?;
        let weight: u32 = match it.next() {
            Some(w) => w.parse().map_err(|_| bad("weight is not an integer"))?,
            None => 0,
        };
        if src > u64::from(u32::MAX) || dst > u64::from(u32::MAX) {
            return Err(bad("vertex id exceeds 32 bits"));
        }
        if let Some(n) = num_vertices {
            if src >= n as u64 || dst >= n as u64 {
                return Err(bad(&format!(
                    "endpoint out of range for the declared {n} vertices"
                )));
            }
        }
        max_vertex = max_vertex.max(src).max(dst);
        edges.push(Edge::weighted(src as VertexId, dst as VertexId, weight));
    }
    let implied = if edges.is_empty() {
        0
    } else {
        max_vertex as usize + 1
    };
    let n = num_vertices.unwrap_or(implied).max(implied);
    EdgeList::from_vec(n, edges).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Writes an edge list as `src dst weight` text (weight omitted when the
/// list is unweighted throughout).
///
/// # Errors
///
/// Returns an [`io::Error`] on filesystem failures.
pub fn write_edge_list<P: AsRef<Path>>(list: &EdgeList, path: P) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(
        w,
        "# scalagraph edge list: {} vertices",
        list.num_vertices()
    )?;
    let weighted = list.iter().any(|e| e.weight != 0);
    for e in list {
        if weighted {
            writeln!(w, "{} {} {}", e.src, e.dst, e.weight)?;
        } else {
            writeln!(w, "{} {}", e.src, e.dst)?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("scalagraph_io_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}_{}", std::process::id(), name))
    }

    #[test]
    fn text_roundtrip_unweighted() {
        let path = tmp("unweighted.txt");
        let mut list = EdgeList::new(50);
        for e in generators::uniform(50, 300, 7) {
            list.push(e);
        }
        write_edge_list(&list, &path).unwrap();
        let back = read_edge_list(&path, Some(50)).unwrap();
        assert_eq!(list.as_slice(), back.as_slice());
        assert_eq!(back.num_vertices(), 50);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn text_roundtrip_weighted() {
        let path = tmp("weighted.txt");
        let mut list = EdgeList::new(20);
        for e in generators::uniform(20, 80, 9) {
            list.push(e);
        }
        list.randomize_weights(255, 3);
        write_edge_list(&list, &path).unwrap();
        let back = read_edge_list(&path, None).unwrap();
        assert_eq!(list.as_slice(), back.as_slice());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn text_parses_comments_and_infers_vertices() {
        let path = tmp("comments.txt");
        std::fs::write(
            &path,
            "# SNAP style header\n% matrix-market style\n0 3\n2 1\n",
        )
        .unwrap();
        let list = read_edge_list(&path, None).unwrap();
        assert_eq!(list.num_vertices(), 4);
        assert_eq!(list.len(), 2);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn text_rejects_garbage() {
        let path = tmp("garbage.txt");
        std::fs::write(&path, "0 not_a_number\n").unwrap();
        let err = read_edge_list(&path, None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn text_rejects_out_of_range_endpoint() {
        let path = tmp("oor.txt");
        std::fs::write(&path, "0 1\n5 2\n").unwrap();
        let err = read_edge_list(&path, Some(4)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("out of range"));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn text_rejects_single_field_line() {
        let path = tmp("single.txt");
        std::fs::write(&path, "0 1\n7\n").unwrap();
        let err = read_edge_list(&path, None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(path).unwrap();
    }
}
