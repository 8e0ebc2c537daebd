//! Table schemas.

use crate::value::DataType;

/// Definition of a single column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: String,
    pub data_type: DataType,
    pub nullable: bool,
}

impl ColumnDef {
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        ColumnDef {
            name: name.into(),
            data_type,
            nullable: false,
        }
    }

    pub fn nullable(mut self) -> Self {
        self.nullable = true;
        self
    }
}

/// An ordered list of column definitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

impl Schema {
    pub fn new(columns: Vec<ColumnDef>) -> Self {
        Schema { columns }
    }

    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    pub fn column(&self, idx: usize) -> &ColumnDef {
        &self.columns[idx]
    }

    /// Ordinal of the column with the given (case-insensitive) name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Total byte width of one row under the cost model.
    pub fn row_width(&self) -> usize {
        self.columns.iter().map(|c| c.data_type.byte_width()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("name", DataType::Str),
            ColumnDef::new("price", DataType::Float).nullable(),
        ])
    }

    #[test]
    fn index_of_is_case_insensitive() {
        let s = schema();
        assert_eq!(s.index_of("ID"), Some(0));
        assert_eq!(s.index_of("Name"), Some(1));
        assert_eq!(s.index_of("missing"), None);
    }

    #[test]
    fn row_width_sums_column_widths() {
        assert_eq!(schema().row_width(), 8 + 16 + 8);
    }

    #[test]
    fn nullable_builder() {
        let s = schema();
        assert!(!s.column(0).nullable);
        assert!(s.column(2).nullable);
    }
}
