//! [`codec_table!`]: the codec of a tagged enum, declared once as a table.
//!
//! Each row declares one variant: its frozen tag, its name and its fields
//! in wire order. From the rows the macro generates `Encode::encode`,
//! `Encode::encoded_len`, `Decode::decode`, the [`Tagged`] tag list and,
//! when the table names one, a class-label function. A field therefore
//! cannot be added to one direction and forgotten in another, and detlint's
//! WIRE-TAGS rule reads the frozen tags straight from the rows.
//!
//! [`codec_table!`]: crate::codec_table

/// The tag list of a type whose codec a [`codec_table!`](crate::codec_table)
/// generated.
pub trait Tagged {
    /// Every tag the decoder accepts, in row order.
    const TAGS: &'static [u8];
}

/// Generates the codec of a tagged enum from a table of rows.
///
/// ```text
/// codec_table! {
///     Type;                            // or, with a class function:
///                                      //     Type, <vis> fn class_fn;
///     tag => Unit,
///     tag => Tuple(binding: FieldType),
///     tag => Struct { field: FieldType, ..., #[trailing] last: LastType },
/// }
/// ```
///
/// A variant encodes as its one-byte tag followed by its fields in row
/// order. With a class function every row ends in `=> "class.label"`, and
/// `class_fn(&value)` returns the label of the value's variant. An unknown
/// tag decodes to `WireError::BadTag { what: "Type", tag }`; a tag that
/// appears twice in one table is a compile error.
///
/// `#[trailing]` marks an optional last field, added to a variant after
/// it shipped. Its type must be `Default + PartialEq`: the field is
/// omitted from the encoding when it equals the default (`0`, an empty
/// `Bytes`, ...) and decodes as the default when the input ends before
/// it, so older encodings stay valid.
///
/// ```
/// use wire::{codec_table, Decode, Encode, Tagged};
///
/// #[derive(Debug, PartialEq)]
/// enum Shape {
///     Dot,
///     Circle(u32),
///     Rect { w: u32, h: u32, depth: u64 },
///     Label { id: u32, text: String },
/// }
///
/// codec_table! {
///     Shape, fn shape_class;
///     0 => Dot => "shape.dot",
///     1 => Circle(radius: u32) => "shape.circle",
///     2 => Rect { w: u32, h: u32, #[trailing] depth: u64 } => "shape.rect",
///     3 => Label { id: u32, #[trailing] text: String } => "shape.label",
/// }
///
/// let flat = Shape::Rect { w: 3, h: 4, depth: 0 };
/// assert_eq!(flat.to_wire(), [2, 3, 4]);
/// assert_eq!(Shape::from_wire(&[2, 3, 4]), Ok(flat));
/// assert_eq!(Shape::from_wire(&[1, 9]), Ok(Shape::Circle(9)));
/// // An empty trailing string is omitted; a non-empty one is length-prefixed.
/// let bare = Shape::Label { id: 7, text: String::new() };
/// assert_eq!(bare.to_wire(), [3, 7]);
/// assert_eq!(Shape::from_wire(&[3, 7]), Ok(bare));
/// let named = Shape::Label { id: 7, text: "hi".into() };
/// assert_eq!(named.to_wire(), [3, 7, 2, b'h', b'i']);
/// assert_eq!(shape_class(&Shape::Dot), "shape.dot");
/// assert_eq!(Shape::TAGS, [0, 1, 2, 3]);
/// ```
///
/// A tag used twice in one table does not compile:
///
/// ```compile_fail
/// enum Bit {
///     Zero,
///     One,
/// }
///
/// wire::codec_table! {
///     Bit;
///     0 => Zero,
///     0 => One,
/// }
/// ```
#[macro_export]
macro_rules! codec_table {
    (
        $ty:ident, $(#[$meta:meta])* $vis:vis fn $class_fn:ident;
        $( $tag:literal => $v:ident
            $( ( $($tf:ident : $tt:ty),* ) )?
            $( { $($sf:ident : $st:ty),* $(, #[trailing] $of:ident : $ot:ty)? $(,)? } )?
            => $label:literal ),* $(,)?
    ) => {
        $(#[$meta])*
        $vis fn $class_fn(msg: &$ty) -> &'static str {
            match msg {
                $( $ty::$v { .. } => $label, )*
            }
        }

        $crate::codec_table! {
            $ty;
            $( $tag => $v
                $( ( $($tf : $tt),* ) )?
                $( { $($sf : $st),* $(, #[trailing] $of : $ot)? } )? ),*
        }
    };
    (
        $ty:ident;
        $( $tag:literal => $v:ident
            $( ( $($tf:ident : $tt:ty),* ) )?
            $( { $($sf:ident : $st:ty),* $(, #[trailing] $of:ident : $ot:ty)? $(,)? } )?
        ),* $(,)?
    ) => {
        impl $crate::Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $( $ty::$v $( ( $($tf),* ) )? $( { $($sf,)* $($of)? } )? => {
                        out.push($tag);
                        $($( $crate::Encode::encode($tf, out); )*)?
                        $(
                            $( $crate::Encode::encode($sf, out); )*
                            $( if *$of != <$ot as Default>::default() {
                                $crate::Encode::encode($of, out);
                            } )?
                        )?
                    } )*
                }
            }

            fn encoded_len(&self) -> usize {
                match self {
                    $( $ty::$v $( ( $($tf),* ) )? $( { $($sf,)* $($of)? } )? => {
                        1 $($( + $crate::Encode::encoded_len($tf) )*)?
                        $(
                            $( + $crate::Encode::encoded_len($sf) )*
                            $( + if *$of != <$ot as Default>::default() {
                                $crate::Encode::encoded_len($of)
                            } else {
                                0
                            } )?
                        )?
                    } )*
                }
            }
        }

        impl $crate::Decode for $ty {
            #[deny(unreachable_patterns)]
            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::WireError> {
                Ok(match r.read_u8()? {
                    $( $tag => $ty::$v
                        $( ( $( <$tt as $crate::Decode>::decode(r)? ),* ) )?
                        $( {
                            $( $sf: <$st as $crate::Decode>::decode(r)?, )*
                            $( $of: if r.remaining() == 0 {
                                <$ot as Default>::default()
                            } else {
                                <$ot as $crate::Decode>::decode(r)?
                            }, )?
                        } )?, )*
                    tag => {
                        return Err($crate::WireError::BadTag {
                            what: stringify!($ty),
                            tag,
                        })
                    }
                })
            }
        }

        impl $crate::Tagged for $ty {
            const TAGS: &'static [u8] = &[$($tag),*];
        }
    };
}
