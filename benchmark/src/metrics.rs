//! A named, ordered list of measured values and its JSON form.

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Metrics in the order they were measured.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        assert!(
            self.get(name).is_none(),
            "metric {name} measured twice in one run"
        );
        self.0.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of
    /// each value.
    pub fn to_json(&self) -> String {
        let entries: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", entries.join(", "))
    }

    /// One aligned `name value unit` line per metric.
    pub fn print(&self, indent: &str) {
        let width = self.0.iter().map(|m| m.name.len()).max().unwrap_or(0);
        for m in &self.0 {
            println!("{indent}{:<width$}  {:>16.4} {}", m.name, m.value, m.unit);
        }
    }
}

/// A finite float as a JSON number; JSON has no NaN or infinity.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_form_round_trips() {
        let mut m = Metrics::default();
        m.put("latency_ms", "ms", 1.2034);
        m.put("count", "count", 3.0);
        let json = m.to_json();
        let value = serde_json::parse_value(&json).unwrap();
        let entries = value.as_object().unwrap();
        let latency = serde::field(entries, "latency_ms")
            .unwrap()
            .as_object()
            .unwrap();
        assert_eq!(
            serde::field(latency, "value").unwrap().as_f64(),
            Some(1.2034)
        );
        assert_eq!(serde::field(latency, "unit").unwrap().as_str(), Some("ms"));
        assert_eq!(m.get("count"), Some(3.0));
        assert_eq!(m.get("absent"), None);
    }
}
