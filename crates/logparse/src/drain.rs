//! Drain: online log parsing with a fixed-depth prefix tree
//! (He et al., ICWS 2017) — the parser LogSynergy's pre-processing uses.
//!
//! Drain maps each raw log message to a *log event* (template): messages are
//! first grouped by token count, then routed through a fixed number of
//! leading tokens (digit-bearing tokens route through a wildcard), and
//! finally matched against the leaf's template groups by token similarity.
//! A match above the threshold merges the message into the group (diverging
//! tokens become `<*>`); otherwise a new group is born.

use std::collections::HashMap;

/// The wildcard token Drain substitutes for parameters.
pub const WILDCARD: &str = "<*>";

/// Identifier of a parsed log event (template).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub u32);

/// Result of parsing one log message.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedLog {
    /// Template the message mapped to.
    pub event: EventId,
    /// Extracted parameter tokens (those matching `<*>` positions).
    pub params: Vec<String>,
}

/// A log template tracked by the parser.
#[derive(Clone, Debug)]
pub struct Template {
    /// Identifier.
    pub id: EventId,
    /// Template tokens, with `<*>` in parameter positions.
    pub tokens: Vec<String>,
    /// How many messages matched this template so far.
    pub count: u64,
}

impl Template {
    /// The template rendered as a single string.
    pub fn text(&self) -> String {
        self.tokens.join(" ")
    }
}

/// Drain configuration.
#[derive(Clone, Debug)]
pub struct DrainConfig {
    /// Tree depth: number of leading tokens used for routing (paper uses 4,
    /// meaning `depth - 2 = 2` routing tokens; we store the routing count).
    pub depth: usize,
    /// Similarity threshold in `[0, 1]` for joining an existing group.
    pub sim_threshold: f64,
    /// Maximum children per internal node before falling back to `<*>`.
    pub max_children: usize,
    /// Mask digit-bearing tokens to `<*>` during preprocessing.
    pub mask_numbers: bool,
}

impl Default for DrainConfig {
    fn default() -> Self {
        DrainConfig {
            depth: 2,
            sim_threshold: 0.5,
            max_children: 100,
            mask_numbers: true,
        }
    }
}

#[derive(Clone, Default)]
struct Node {
    children: HashMap<String, Node>,
    /// Group indices (into `Drain::templates`) stored at leaves.
    groups: Vec<usize>,
}

/// The Drain parser.
#[derive(Clone)]
pub struct Drain {
    config: DrainConfig,
    /// First level keyed by token count, then by routing tokens.
    root: HashMap<usize, Node>,
    templates: Vec<Template>,
}

impl Drain {
    /// Creates a parser with the given configuration.
    pub fn new(config: DrainConfig) -> Self {
        assert!(config.depth >= 1, "depth must be >= 1");
        assert!(
            (0.0..=1.0).contains(&config.sim_threshold),
            "similarity threshold out of [0,1]"
        );
        Drain {
            config,
            root: HashMap::new(),
            templates: Vec::new(),
        }
    }

    /// Parser with default configuration.
    pub fn with_defaults() -> Self {
        Self::new(DrainConfig::default())
    }

    /// Number of distinct templates learned so far.
    pub fn num_templates(&self) -> usize {
        self.templates.len()
    }

    /// All learned templates.
    pub fn templates(&self) -> &[Template] {
        &self.templates
    }

    /// Looks up a template by id.
    pub fn template(&self, id: EventId) -> &Template {
        &self.templates[id.0 as usize]
    }

    /// The token Drain matches on: `<*>` for a digit-bearing token when
    /// numbers are masked, else the token itself.
    fn masked<'m>(&self, token: &'m str) -> &'m str {
        if self.config.mask_numbers && token.bytes().any(|b| b.is_ascii_digit()) {
            WILDCARD
        } else {
            token
        }
    }

    /// The child of `node` that `token` routes to, created on first use.
    /// A token unseen at a full node routes through `<*>`. Looked up by
    /// `&str` (`entry` would want an owned key per level): two lookups for
    /// a known token, an owned key only for a new child.
    fn route<'n>(node: &'n mut Node, token: &str, max_children: usize) -> &'n mut Node {
        let mut key = token;
        if !node.children.contains_key(key) {
            if key != WILDCARD && node.children.len() >= max_children {
                key = WILDCARD;
            }
            // `token` itself is known absent; `<*>` may already be there.
            if key == token || !node.children.contains_key(key) {
                node.children.insert(key.to_string(), Node::default());
            }
        }
        node.children
            .get_mut(key)
            .expect("the routed child was just ensured")
    }

    /// Token-overlap similarity between a template and a tokenized message
    /// of the same length; wildcard positions are ignored in the numerator
    /// but counted in the denominator (Drain's `simSeq`). The empty
    /// template is identical to the empty message (1.0, not `0/0`: a NaN
    /// never clears the threshold, so every empty or whitespace-only
    /// message would learn a template of its own).
    fn similarity(template: &[String], tokens: &[&str]) -> (f64, usize) {
        if template.is_empty() {
            return (1.0, 0);
        }
        let mut same = 0usize;
        let mut wildcards = 0usize;
        for (a, b) in template.iter().zip(tokens) {
            if a == WILDCARD {
                wildcards += 1;
            } else if a == b {
                same += 1;
            }
        }
        (same as f64 / template.len() as f64, wildcards)
    }

    /// The one tree walk: routes the masked tokens of a message to a leaf,
    /// merges them into the best-matching group or starts a new one, and
    /// returns the group's index into `templates`. Works on borrowed
    /// tokens; a `String` is made only when a node or template is created
    /// or a template token is merged to `<*>`.
    fn learn(&mut self, tokens: &[&str]) -> usize {
        let len = tokens.len();
        let max_children = self.config.max_children;

        // Descend the fixed-depth tree, creating nodes as needed.
        let mut node = self.root.entry(len).or_default();
        for token in tokens.iter().take(self.config.depth) {
            node = Self::route(node, token, max_children);
        }

        // Find the best-matching group at the leaf.
        let mut best: Option<(usize, f64, usize)> = None;
        for &gi in &node.groups {
            let (sim, wc) = Self::similarity(&self.templates[gi].tokens, tokens);
            let better = match best {
                None => true,
                Some((_, bs, bw)) => sim > bs || (sim == bs && wc < bw),
            };
            if better {
                best = Some((gi, sim, wc));
            }
        }

        match best {
            Some((gi, sim, _)) if sim >= self.config.sim_threshold => {
                // Merge: diverging tokens become wildcards.
                let t = &mut self.templates[gi];
                for (tt, mt) in t.tokens.iter_mut().zip(tokens) {
                    if tt != mt && tt != WILDCARD {
                        *tt = WILDCARD.to_string();
                    }
                }
                t.count += 1;
                gi
            }
            _ => {
                let gi = self.templates.len();
                self.templates.push(Template {
                    id: EventId(gi as u32),
                    tokens: tokens.iter().map(|t| t.to_string()).collect(),
                    count: 1,
                });
                node.groups.push(gi);
                gi
            }
        }
    }

    /// The whitespace-separated tokens of a message, in one allocation:
    /// `n` bytes hold at most `n / 2 + 1` tokens.
    fn split(message: &str) -> Vec<&str> {
        let mut tokens = Vec::with_capacity(message.len() / 2 + 1);
        tokens.extend(message.split_whitespace());
        tokens
    }

    /// Parses one message, learning templates online.
    pub fn parse(&mut self, message: &str) -> ParsedLog {
        let raw = Self::split(message);
        let tokens: Vec<&str> = raw.iter().map(|t| self.masked(t)).collect();
        let group = self.learn(&tokens);
        let template = &self.templates[group];
        let params = template
            .tokens
            .iter()
            .zip(&raw)
            .filter(|(t, _)| *t == WILDCARD)
            .map(|(_, r)| r.to_string())
            .collect();
        ParsedLog {
            event: template.id,
            params,
        }
    }

    /// [`Drain::parse`] without the parameter extraction: learns from the
    /// message exactly as `parse` does and returns only its event id, for
    /// callers (the serving vectorizer) that drop the parameters.
    pub fn parse_event(&mut self, message: &str) -> EventId {
        let mut tokens = Self::split(message);
        for token in &mut tokens {
            *token = self.masked(token);
        }
        let group = self.learn(&tokens);
        self.templates[group].id
    }

    /// Parses a batch of messages, returning their event ids.
    pub fn parse_all<'a>(&mut self, messages: impl IntoIterator<Item = &'a str>) -> Vec<EventId> {
        messages.into_iter().map(|m| self.parse_event(m)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identical_messages_share_template() {
        let mut d = Drain::with_defaults();
        let a = d.parse("connection opened to server alpha");
        let b = d.parse("connection opened to server alpha");
        assert_eq!(a.event, b.event);
        assert_eq!(d.num_templates(), 1);
        assert_eq!(d.template(a.event).count, 2);
    }

    #[test]
    fn parameters_become_wildcards() {
        let mut d = Drain::with_defaults();
        let a = d.parse("connection opened to server alpha port 80");
        let b = d.parse("connection opened to server beta port 8080");
        assert_eq!(a.event, b.event);
        let t = d.template(a.event);
        assert!(t.tokens.contains(&WILDCARD.to_string()));
        assert_eq!(
            t.tokens[4], WILDCARD,
            "diverging token should be masked: {:?}",
            t.tokens
        );
    }

    #[test]
    fn numeric_tokens_masked_in_preprocessing() {
        let mut d = Drain::with_defaults();
        let a = d.parse("request took 154 ms");
        let b = d.parse("request took 7 ms");
        assert_eq!(a.event, b.event);
        assert_eq!(d.num_templates(), 1);
        assert_eq!(a.params, vec!["154"]);
        assert_eq!(b.params, vec!["7"]);
    }

    #[test]
    fn different_lengths_never_merge() {
        let mut d = Drain::with_defaults();
        let a = d.parse("disk full");
        let b = d.parse("disk full on volume root");
        assert_ne!(a.event, b.event);
    }

    #[test]
    fn dissimilar_messages_get_new_templates() {
        let mut d = Drain::with_defaults();
        let a = d.parse("kernel panic detected now");
        let b = d.parse("kernel heartbeat signal ok");
        // shares only the routing token "kernel": similarity 1/4 < 0.5
        assert_ne!(a.event, b.event);
        assert_eq!(d.num_templates(), 2);
    }

    #[test]
    fn wildcard_routing_for_leading_numbers() {
        let mut d = Drain::with_defaults();
        let a = d.parse("1024 bytes written to cache");
        let b = d.parse("2048 bytes written to cache");
        assert_eq!(a.event, b.event);
    }

    #[test]
    fn template_text_roundtrip() {
        let mut d = Drain::with_defaults();
        let p = d.parse("service restarted cleanly");
        assert_eq!(d.template(p.event).text(), "service restarted cleanly");
    }

    #[test]
    fn max_children_overflow_routes_to_wildcard() {
        let mut d = Drain::new(DrainConfig {
            max_children: 2,
            ..DrainConfig::default()
        });
        // Three distinct leading tokens with only 2 child slots.
        d.parse("aaa common tail token");
        d.parse("bbb common tail token");
        let c = d.parse("ccc common tail token");
        // ccc routed through <*>; new group there (no similar group yet).
        assert_eq!(d.num_templates(), 3);
        let again = d.parse("ccc common tail token");
        assert_eq!(c.event, again.event);
    }

    /// The body `parse` had before the borrowed-token core: one `String`
    /// per token, per routing level and per parameter. Kept as the
    /// differential oracle for `learn` and its two entries.
    fn parse_reference(d: &mut Drain, message: &str) -> ParsedLog {
        let tokens: Vec<String> = message
            .split_whitespace()
            .map(|t| {
                if d.config.mask_numbers && t.chars().any(|c| c.is_ascii_digit()) {
                    WILDCARD.to_string()
                } else {
                    t.to_string()
                }
            })
            .collect();
        let len = tokens.len();
        let max_children = d.config.max_children;

        let mut node = d.root.entry(len).or_default();
        for token in tokens.iter().take(d.config.depth.min(len)) {
            let key = if token == WILDCARD
                || node.children.contains_key(token)
                || node.children.len() < max_children
            {
                token.to_string()
            } else {
                WILDCARD.to_string()
            };
            node = node.children.entry(key).or_default();
        }

        let mut best: Option<(usize, f64, usize)> = None;
        for &gi in &node.groups {
            let t = &d.templates[gi];
            let (mut same, mut wc) = (0usize, 0usize);
            for (a, b) in t.tokens.iter().zip(&tokens) {
                if a == WILDCARD {
                    wc += 1;
                } else if a == b {
                    same += 1;
                }
            }
            let sim = if t.tokens.is_empty() {
                1.0
            } else {
                same as f64 / t.tokens.len() as f64
            };
            let better = match best {
                None => true,
                Some((_, bs, bw)) => sim > bs || (sim == bs && wc < bw),
            };
            if better {
                best = Some((gi, sim, wc));
            }
        }

        let group_idx = match best {
            Some((gi, sim, _)) if sim >= d.config.sim_threshold => {
                let t = &mut d.templates[gi];
                for (tt, mt) in t.tokens.iter_mut().zip(&tokens) {
                    if tt != mt && tt != WILDCARD {
                        *tt = WILDCARD.to_string();
                    }
                }
                t.count += 1;
                gi
            }
            _ => {
                let id = EventId(d.templates.len() as u32);
                d.templates.push(Template {
                    id,
                    tokens: tokens.clone(),
                    count: 1,
                });
                node.groups.push(d.templates.len() - 1);
                d.templates.len() - 1
            }
        };

        let template = &d.templates[group_idx];
        let raw: Vec<&str> = message.split_whitespace().collect();
        let params = template
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| *t == WILDCARD)
            .map(|(i, _)| raw.get(i).copied().unwrap_or("").to_string())
            .collect();
        ParsedLog {
            event: template.id,
            params,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `parse`, `parse_event` and the pre-refactor body learn the same
        /// templates from the same stream: same event id per message, same
        /// parameters, and the same `templates()` afterwards — including
        /// under `max_children` overflow and `depth` beyond the message.
        #[test]
        fn both_entries_learn_what_the_reference_body_learns(
            msgs in proptest::collection::vec(
                proptest::collection::vec(
                    prop_oneof!["[a-c]{1,2}", "[a-b]{0,1}[0-9]{1,2}", Just(WILDCARD.to_string())],
                    0..6,
                ),
                0..60,
            ),
            seps in proptest::collection::vec(0usize..4, 8),
            max_children in prop_oneof![Just(2usize), Just(3), Just(100)],
            depth in 1usize..4,
            mask_numbers in any::<bool>(),
        ) {
            let config = DrainConfig { depth, max_children, mask_numbers, ..DrainConfig::default() };
            let mut full = Drain::new(config.clone());
            let mut event_only = Drain::new(config.clone());
            let mut reference = Drain::new(config);
            for (i, tokens) in msgs.iter().enumerate() {
                // Runs of mixed whitespace between, before and after tokens.
                let sep = ["  ", "\t", " \t ", " "][seps[i % seps.len()]];
                let line = format!("{sep}{}{sep}", tokens.join(sep));
                let want = parse_reference(&mut reference, &line);
                prop_assert_eq!(&full.parse(&line), &want, "line {:?}", line);
                prop_assert_eq!(event_only.parse_event(&line), want.event, "line {:?}", line);
            }
            let shape = |d: &Drain| -> Vec<(EventId, Vec<String>, u64)> {
                d.templates().iter().map(|t| (t.id, t.tokens.clone(), t.count)).collect()
            };
            prop_assert_eq!(shape(&full), shape(&reference));
            prop_assert_eq!(shape(&event_only), shape(&reference));
        }
    }

    #[test]
    fn empty_and_whitespace_messages_share_one_template() {
        let mut d = Drain::with_defaults();
        d.parse("job 1 finished");
        let blanks = ["", " ", "\t", " \t\r\n ", "\u{3000}"];
        let first = d.parse_event("");
        for i in 0..20_000 {
            assert_eq!(d.parse_event(blanks[i % blanks.len()]), first);
        }
        assert_eq!(d.num_templates(), 2);
        assert!(d.templates()[first.0 as usize].tokens.is_empty());
        assert_eq!(d.parse("").params, Vec::<String>::new());
    }

    #[test]
    fn counts_accumulate() {
        let mut d = Drain::with_defaults();
        for i in 0..10 {
            d.parse(&format!("job {i} finished"));
        }
        assert_eq!(d.num_templates(), 1);
        assert_eq!(d.templates()[0].count, 10);
    }
}
