//! One module per paper table/figure.

pub mod aging;
pub mod cardbench;
pub mod fig3;
pub mod fig4;
pub mod intro;
pub mod online;
pub mod serve;
pub mod shrink;
pub mod table1;
pub mod tsweep;
