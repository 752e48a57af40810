//! Where a result came from: host, toolchain and source revision.
//!
//! The revision is read from `.git` directly (no `git` process): `HEAD`,
//! its ref (loose or packed), and a dirty flag from comparing every
//! tracked file against the index — by size, then by blob hash when the
//! size matches but the timestamp does not.

use std::fs;
use std::path::Path;

/// CPU model from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC_VERSION")
}

/// `(revision, dirty)` for the repository rooted at `root`; `None` when
/// there is no readable `.git` directory. `dirty` is `None` when the
/// index uses a format this reader does not parse.
pub fn git_revision(root: &Path) -> Option<(String, Option<bool>)> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(refname) => resolve_ref(&git, refname)?,
        None => head.to_string(),
    };
    let dirty = fs::read(git.join("index"))
        .ok()
        .and_then(|index| index_dirty(root, &index));
    Some((rev, dirty))
}

fn resolve_ref(git: &Path, refname: &str) -> Option<String> {
    if let Ok(text) = fs::read_to_string(git.join(refname)) {
        return Some(text.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (hash, name) = l.split_once(' ')?;
        (name.trim() == refname).then(|| hash.to_string())
    })
}

/// Whether any tracked file differs from the index (version 2 or 3).
fn index_dirty(root: &Path, index: &[u8]) -> Option<bool> {
    if index.len() < 12 || &index[..4] != b"DIRC" {
        return None;
    }
    let version = be32(index, 4)?;
    if version != 2 && version != 3 {
        return None;
    }
    let count = be32(index, 8)? as usize;
    let mut pos = 12;
    for _ in 0..count {
        let entry = index.get(pos..pos + 62)?;
        let mtime_s = be32(entry, 8)?;
        let mtime_ns = be32(entry, 12)?;
        let mode = be32(entry, 24)?;
        let size = be32(entry, 36)?;
        let sha: [u8; 20] = entry[40..60].try_into().ok()?;
        let flags = u16::from_be_bytes([entry[60], entry[61]]);
        let mut header = 62;
        if version == 3 && flags & 0x4000 != 0 {
            header += 2;
        }
        let name_start = pos + header;
        let name_len = index.get(name_start..)?.iter().position(|&b| b == 0)?;
        let name = std::str::from_utf8(&index[name_start..name_start + name_len]).ok()?;
        // Entries are NUL-padded to a multiple of eight bytes.
        pos += (header + name_len + 8) / 8 * 8;
        // Symlinks and submodules are compared by git, not here.
        if mode & 0o170000 != 0o100000 {
            continue;
        }
        if file_differs(&root.join(name), mtime_s, mtime_ns, size, &sha) {
            return Some(true);
        }
    }
    Some(false)
}

fn file_differs(path: &Path, mtime_s: u32, mtime_ns: u32, size: u32, sha: &[u8; 20]) -> bool {
    let Ok(meta) = fs::metadata(path) else {
        return true;
    };
    if meta.len() as u32 != size {
        return true;
    }
    use std::os::unix::fs::MetadataExt;
    if meta.mtime() as u32 == mtime_s && meta.mtime_nsec() as u32 == mtime_ns {
        return false;
    }
    let Ok(bytes) = fs::read(path) else {
        return true;
    };
    let mut blob = format!("blob {}\0", bytes.len()).into_bytes();
    blob.extend_from_slice(&bytes);
    sha1(&blob) != *sha
}

fn be32(bytes: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_be_bytes(bytes.get(at..at + 4)?.try_into().ok()?))
}

/// SHA-1 (FIPS 180-4), for git blob identities.
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut h: [u32; 5] = [
        0x6745_2301,
        0xEFCD_AB89,
        0x98BA_DCFE,
        0x1032_5476,
        0xC3D2_E1F0,
    ];
    let mut msg = data.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&((data.len() as u64) * 8).to_be_bytes());
    for block in msg.chunks(64) {
        let mut w = [0u32; 80];
        for (i, word) in block.chunks(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let [mut a, mut b, mut c, mut d, mut e] = h;
        for (i, wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | (!b & d), 0x5A82_7999),
                20..=39 => (b ^ c ^ d, 0x6ED9_EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
                _ => (b ^ c ^ d, 0xCA62_C1D6),
            };
            let t = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(*wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = t;
        }
        for (hi, v) in h.iter_mut().zip([a, b, c, d, e]) {
            *hi = hi.wrapping_add(v);
        }
    }
    let mut out = [0u8; 20];
    for (chunk, v) in out.chunks_mut(4).zip(h) {
        chunk.copy_from_slice(&v.to_be_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sha1_known_answers() {
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        assert_eq!(
            hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        // git's id of an empty blob.
        assert_eq!(
            hex(&sha1(b"blob 0\0")),
            "e69de29bb2d1d6434b8b29ae775ad8c2e48c5391"
        );
        let long = vec![b'a'; 1000];
        assert_eq!(
            hex(&sha1(&long)),
            "291e9a6c66994949b57ba5e650361e98fc36b1ba"
        );
    }

    #[test]
    fn no_git_directory_gives_no_revision() {
        let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        assert_eq!(git_revision(&src), None);
    }
}
