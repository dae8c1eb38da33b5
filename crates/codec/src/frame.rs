//! The record frame shared by the database journal, the worker wire
//! protocol and checkpoint files:
//!
//! ```text
//! +----------------+----------------+====================+
//! | len: u32 LE    | crc: u32 LE    | payload (len bytes)|
//! +----------------+----------------+====================+
//! ```
//!
//! `len` is the payload length and `crc` the IEEE [`crc32`] of the
//! payload. Frames are written back to back with nothing between them,
//! so a byte stream that stops anywhere — a crashed writer, a torn pipe,
//! a truncated file — ends in a frame *prefix*, which [`next_frame`]
//! reports as [`Frame::Incomplete`] rather than as a record. What to do
//! about that is the caller's policy: the journal stops replay at the
//! torn tail, the wire decoder waits for more bytes, a checkpoint
//! refuses the whole file.

use crate::crc32;

/// Bytes of frame header (`len` + `crc`) before the payload.
pub const HEADER_LEN: usize = 8;

/// Largest payload a reader will *wait* for. A short input whose length
/// field is beyond this is [`Frame::BadLength`], not
/// [`Frame::Incomplete`], so a bit-flipped length cannot make a
/// streaming decoder buffer gigabytes for a frame that never completes.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Appends one `[len][crc][payload]` frame to `out`.
///
/// # Panics
///
/// Panics if `payload` is longer than `u32::MAX` bytes, which the
/// length field cannot represent.
pub fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("frame payload fits the u32 length field");
    out.reserve(HEADER_LEN + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Wraps a payload in a frame of its own.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    push_frame(&mut frame, payload);
    frame
}

/// What [`next_frame`] found at the start of a byte slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame<'a> {
    /// A whole frame whose checksum matches.
    Complete {
        /// The frame's payload.
        payload: &'a [u8],
        /// Header plus payload bytes; the next frame starts here.
        consumed: usize,
    },
    /// The slice ends inside the header or the payload.
    Incomplete,
    /// The payload is all there but does not match the header's CRC.
    BadCrc {
        /// CRC stored in the frame header.
        expected: u32,
        /// CRC computed over the payload.
        actual: u32,
    },
    /// The slice ends inside a payload whose announced length exceeds
    /// [`MAX_FRAME_LEN`].
    BadLength(u32),
}

/// Decodes the frame at the start of `bytes`.
///
/// Never yields [`Frame::Complete`] for anything but the exact payload
/// that was framed: truncation at any byte is `Incomplete`, and a
/// flipped bit anywhere is `BadCrc`, `BadLength` or `Incomplete`.
pub fn next_frame(bytes: &[u8]) -> Frame<'_> {
    let Some((header, rest)) = bytes.split_first_chunk::<HEADER_LEN>() else {
        return Frame::Incomplete;
    };
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let expected = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    let wanted = usize::try_from(len).unwrap_or(usize::MAX);
    let Some(payload) = rest.get(..wanted) else {
        return if wanted > MAX_FRAME_LEN {
            Frame::BadLength(len)
        } else {
            Frame::Incomplete
        };
    };
    let actual = crc32(payload);
    if actual != expected {
        return Frame::BadCrc { expected, actual };
    }
    Frame::Complete {
        payload,
        consumed: HEADER_LEN + payload.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAYLOAD: &[u8] = b"{\"op\":\"del\",\"c\":\"runs\",\"id\":\"r1\"}";

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut stream = Vec::new();
        push_frame(&mut stream, PAYLOAD);
        push_frame(&mut stream, b"");
        assert_eq!(stream[..PAYLOAD.len() + HEADER_LEN], encode_frame(PAYLOAD));
        let Frame::Complete { payload, consumed } = next_frame(&stream) else {
            panic!("first frame is complete");
        };
        assert_eq!(payload, PAYLOAD);
        assert_eq!(consumed, HEADER_LEN + PAYLOAD.len());
        assert_eq!(
            next_frame(&stream[consumed..]),
            Frame::Complete {
                payload: b"",
                consumed: HEADER_LEN
            }
        );
        assert_eq!(
            next_frame(&stream[consumed + HEADER_LEN..]),
            Frame::Incomplete
        );
    }

    #[test]
    fn truncation_at_every_byte_is_incomplete() {
        let frame = encode_frame(PAYLOAD);
        for cut in 0..frame.len() {
            assert_eq!(next_frame(&frame[..cut]), Frame::Incomplete, "cut {cut}");
        }
    }

    #[test]
    fn no_single_bit_flip_yields_a_frame() {
        let frame = encode_frame(PAYLOAD);
        for bit in 0..frame.len() * 8 {
            let mut bent = frame.clone();
            bent[bit / 8] ^= 1 << (bit % 8);
            match next_frame(&bent) {
                Frame::Complete { .. } => panic!("bit {bit} flipped yet the frame decoded"),
                Frame::BadCrc { expected, actual } => assert_ne!(expected, actual),
                Frame::BadLength(len) => assert!(len as usize > MAX_FRAME_LEN),
                Frame::Incomplete => {}
            }
        }
    }

    #[test]
    fn oversized_length_field_is_rejected_without_waiting() {
        let mut header = (MAX_FRAME_LEN as u32 + 1).to_le_bytes().to_vec();
        header.extend_from_slice(&[0; 4]);
        assert_eq!(
            next_frame(&header),
            Frame::BadLength(MAX_FRAME_LEN as u32 + 1)
        );
        // At the cap itself a reader still waits.
        let mut header = (MAX_FRAME_LEN as u32).to_le_bytes().to_vec();
        header.extend_from_slice(&[0; 4]);
        assert_eq!(next_frame(&header), Frame::Incomplete);
    }

    #[test]
    fn a_record_already_in_hand_is_read_whatever_its_size() {
        // Journals written before the cap existed may hold records
        // beyond it (a large blob, hex-encoded); the cap bounds what a
        // reader waits for, not what it accepts.
        let big = vec![b'x'; MAX_FRAME_LEN + 1];
        let frame = encode_frame(&big);
        assert_eq!(
            next_frame(&frame),
            Frame::Complete {
                payload: &big,
                consumed: frame.len()
            }
        );
    }
}
