//! One walk over a component's dynamic state, for both directions of a
//! snapshot codec.
//!
//! Each stateful component on the session path has one `walk_state`
//! method that visits its dynamic fields in byte order. A codec runs
//! that walk twice over: a writer copies each visited field out, a
//! reader overwrites it. The field list that encodes a component is
//! therefore the list that decodes it, and a new register takes one
//! line next to its field. [`Tape`] runs the same walk in memory, to
//! copy one component's state into another of its kind.
//!
//! Both directions see `&mut` fields, and a writer leaves them as they
//! were. A component whose state must be rebuilt after a read (a cached
//! keystream block, say) checks [`StateWalk::READS`].

use std::borrow::Cow;
use std::collections::VecDeque;
use std::ops::RangeInclusive;

/// Upper bound on any walked sequence's element count, far beyond any
/// real configuration: a corrupt length field fails fast instead of
/// driving a giant read.
pub const MAX_ELEMS: usize = 1 << 20;

/// A visitor that either writes every field it is shown or overwrites
/// it with what it reads.
pub trait StateWalk {
    /// Why the walk stopped.
    type Error;
    /// Whether the walk overwrites the fields it visits (a decode)
    /// rather than copying them out (an encode).
    const READS: bool;
    /// A byte.
    fn u8(&mut self, v: &mut u8) -> Result<(), Self::Error>;
    /// A 32-bit word.
    fn u32(&mut self, v: &mut u32) -> Result<(), Self::Error>;
    /// A 64-bit word.
    fn u64(&mut self, v: &mut u64) -> Result<(), Self::Error>;
    /// A float, bit for bit.
    fn f64(&mut self, v: &mut f64) -> Result<(), Self::Error>;
    /// A length-prefixed run of floats, bit for bit, in one pass: the
    /// length as [`len`](Self::len) walks it, then every element. A
    /// read replaces `vs`, reusing its allocation, and grows it only
    /// once the whole run is known to be there.
    fn f64s(&mut self, field: &'static str, vs: &mut Vec<f64>) -> Result<(), Self::Error>;
    /// A sequence length. Both directions refuse one above
    /// [`MAX_ELEMS`], naming `field`.
    fn len(&mut self, field: &'static str, len: &mut usize) -> Result<(), Self::Error>;
    /// An enum discriminant. Both directions refuse one outside
    /// `valid`, naming `field`.
    fn tag(
        &mut self,
        field: &'static str,
        tag: &mut u8,
        valid: RangeInclusive<u8>,
    ) -> Result<(), Self::Error>;
}

/// Walks `v` as a tag: `first` plus its index in `table`.
pub fn walk_enum<W: StateWalk, T: Copy + PartialEq>(
    w: &mut W,
    field: &'static str,
    v: &mut T,
    first: u8,
    table: &[T],
) -> Result<(), W::Error> {
    let index = table.iter().position(|t| t == v);
    let mut tag = index.map_or(u8::MAX, |i| first + i as u8);
    let last = first + table.len().saturating_sub(1) as u8;
    w.tag(field, &mut tag, first..=last)?;
    if let Some(&t) = tag
        .checked_sub(first)
        .and_then(|i| table.get(usize::from(i)))
    {
        *v = t;
    }
    Ok(())
}

/// Walks an optional value: a 0/1 presence tag, then the value when
/// present. A read that finds a value where `v` holds none walks it
/// into `blank`.
pub fn walk_opt<W: StateWalk, T>(
    w: &mut W,
    field: &'static str,
    v: &mut Option<T>,
    blank: T,
    walk: impl FnOnce(&mut W, &mut T) -> Result<(), W::Error>,
) -> Result<(), W::Error> {
    let mut present = v.is_some();
    walk_enum(w, field, &mut present, 0, &[false, true])?;
    if !present {
        *v = None;
        return Ok(());
    }
    walk(w, v.get_or_insert(blank))
}

/// Walks a length-prefixed sequence, `each` walking one item in place.
/// A read overwrites the items already held, so their own buffers are
/// reused, and appends one further item per successful item read; then
/// it keeps the newest `cap` items, as pushing each into a window of
/// that size would.
pub fn walk_seq<W: StateWalk, T: Default>(
    w: &mut W,
    field: &'static str,
    items: &mut VecDeque<T>,
    cap: usize,
    mut each: impl FnMut(&mut W, &mut T) -> Result<(), W::Error>,
) -> Result<(), W::Error> {
    let mut len = items.len();
    w.len(field, &mut len)?;
    for i in 0..len {
        match items.get_mut(i) {
            Some(item) => each(w, item)?,
            None => {
                let mut item = T::default();
                each(w, &mut item)?;
                items.push_back(item);
            }
        }
    }
    if W::READS && items.len() != len.min(cap) {
        items.truncate(len);
        items.drain(..len.saturating_sub(cap));
    }
    Ok(())
}

/// A walked state held in memory, one word per scalar:
/// [`Tape::record`] runs a writer walk and [`Tape::play`] a reader walk
/// over what it recorded. It has no header or checksum; a state that
/// leaves the process goes through a codec.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tape {
    words: Vec<u64>,
}

/// Why a [`Tape`] walk stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TapeError {
    /// A read asked for more words than were recorded.
    Exhausted,
    /// A read ended before the last recorded word.
    Trailing,
    /// A length above [`MAX_ELEMS`] or a tag outside its range.
    Invalid(&'static str),
}

/// The visitor of a [`Tape`] walk: a writer when `READS` is false.
pub struct TapeWalk<'a, const READS: bool> {
    words: Cow<'a, [u64]>,
    at: usize,
}

impl Tape {
    /// Records the state that `walk` visits.
    pub fn record(
        walk: impl FnOnce(&mut TapeWalk<'_, false>) -> Result<(), TapeError>,
    ) -> Result<Tape, TapeError> {
        let mut w = TapeWalk {
            words: Cow::Owned(Vec::new()),
            at: 0,
        };
        walk(&mut w)?;
        Ok(Tape {
            words: w.words.into_owned(),
        })
    }

    /// Overwrites the state that `walk` visits with the recorded one.
    /// The walk must read every recorded word and no more.
    pub fn play(
        &self,
        walk: impl FnOnce(&mut TapeWalk<'_, true>) -> Result<(), TapeError>,
    ) -> Result<(), TapeError> {
        let mut w = TapeWalk {
            words: Cow::Borrowed(&self.words),
            at: 0,
        };
        walk(&mut w)?;
        if w.at == self.words.len() {
            Ok(())
        } else {
            Err(TapeError::Trailing)
        }
    }
}

impl<const READS: bool> TapeWalk<'_, READS> {
    /// Records `v`, or reads the next word in its place.
    fn word(&mut self, v: u64) -> Result<u64, TapeError> {
        if !READS {
            self.words.to_mut().push(v);
            return Ok(v);
        }
        let w = self.words.get(self.at).copied();
        self.at += 1;
        w.ok_or(TapeError::Exhausted)
    }
}

impl<const R: bool> StateWalk for TapeWalk<'_, R> {
    type Error = TapeError;
    const READS: bool = R;

    fn u8(&mut self, v: &mut u8) -> Result<(), TapeError> {
        *v = self.word(u64::from(*v))? as u8;
        Ok(())
    }

    fn u32(&mut self, v: &mut u32) -> Result<(), TapeError> {
        *v = self.word(u64::from(*v))? as u32;
        Ok(())
    }

    fn u64(&mut self, v: &mut u64) -> Result<(), TapeError> {
        *v = self.word(*v)?;
        Ok(())
    }

    fn f64(&mut self, v: &mut f64) -> Result<(), TapeError> {
        *v = f64::from_bits(self.word(v.to_bits())?);
        Ok(())
    }

    fn f64s(&mut self, field: &'static str, vs: &mut Vec<f64>) -> Result<(), TapeError> {
        let mut len = vs.len();
        self.len(field, &mut len)?;
        if !R {
            self.words.to_mut().extend(vs.iter().map(|v| v.to_bits()));
            return Ok(());
        }
        let run = self.words.get(self.at..self.at + len);
        let run = run.ok_or(TapeError::Exhausted)?;
        vs.clear();
        vs.extend(run.iter().map(|&w| f64::from_bits(w)));
        self.at += len;
        Ok(())
    }

    fn len(&mut self, field: &'static str, len: &mut usize) -> Result<(), TapeError> {
        let w = self.word(*len as u64)?;
        *len = usize::try_from(w)
            .ok()
            .filter(|&n| n <= MAX_ELEMS)
            .ok_or(TapeError::Invalid(field))?;
        Ok(())
    }

    fn tag(
        &mut self,
        field: &'static str,
        tag: &mut u8,
        valid: RangeInclusive<u8>,
    ) -> Result<(), TapeError> {
        let w = self.word(u64::from(*tag))?;
        *tag = u8::try_from(w)
            .ok()
            .filter(|t| valid.contains(t))
            .ok_or(TapeError::Invalid(field))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Regs {
        count: u64,
        level: Option<f64>,
        runs: VecDeque<Vec<f64>>,
    }

    impl Regs {
        fn walk_state<W: StateWalk>(&mut self, w: &mut W) -> Result<(), W::Error> {
            w.u64(&mut self.count)?;
            walk_opt(w, "level", &mut self.level, 0.0, W::f64)?;
            walk_seq(w, "runs", &mut self.runs, 2, |w, run| w.f64s("run", run))
        }
    }

    #[test]
    fn a_tape_copies_state_and_refuses_a_foreign_one() {
        let mut a = Regs {
            count: 7,
            level: Some(-0.5),
            runs: VecDeque::from([vec![1.0], vec![], vec![2.0, f64::NAN]]),
        };
        let tape = Tape::record(|w| a.walk_state(w)).expect("records");
        let mut b = Regs::default();
        tape.play(|w| b.walk_state(w)).expect("plays");
        assert_eq!((b.count, b.level), (7, Some(-0.5)));
        // The cap keeps the newest runs, each bit for bit.
        let bits = |runs: &VecDeque<Vec<f64>>| -> Vec<Vec<u64>> {
            runs.iter()
                .map(|r| r.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&b.runs), bits(&a.runs)[1..]);

        // A shorter walk leaves words unread; a longer one runs out.
        let mut count = 0;
        assert_eq!(tape.play(|w| w.u64(&mut count)), Err(TapeError::Trailing));
        let longer = |w: &mut TapeWalk<'_, true>| {
            Regs::default().walk_state(w)?;
            w.u8(&mut 0)
        };
        assert_eq!(tape.play(longer), Err(TapeError::Exhausted));
        // A presence word that is not 0 or 1 is a bad tag.
        let bad = Tape { words: vec![7, 2] };
        assert_eq!(
            bad.play(|w| Regs::default().walk_state(w)),
            Err(TapeError::Invalid("level"))
        );
    }
}
