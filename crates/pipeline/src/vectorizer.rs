//! Online event vectorization: Drain parsing + LEI interpretation +
//! embedding, maintained incrementally as new templates appear (§III-E:
//! "When a new log event appears, LogSynergy maps the new log event into
//! an event embedding").

use logsynergy_embed::HashedEmbedder;
use logsynergy_lei::{LeiConfig, LlmInterpreter, ReviewPolicy};
use logsynergy_loggen::SystemId;
use logsynergy_logparse::{Drain, DrainConfig};

/// Incremental message → (event id, embedding-table) mapper.
///
/// Cloning replicates the full template space (parser state, embedding
/// table, interpretation texts), giving each detection worker an
/// independent vectorizer that evolves with its own shard.
#[derive(Clone)]
pub struct EventVectorizer {
    drain: Drain,
    lei: LlmInterpreter,
    embedder: HashedEmbedder,
    system: SystemId,
    policy: ReviewPolicy,
    /// Template id → embedding.
    table: Vec<Vec<f32>>,
    /// Template id → interpretation text.
    texts: Vec<String>,
    /// Count of templates first seen online (after construction).
    new_templates: usize,
}

impl EventVectorizer {
    /// Creates a vectorizer for a system with the given embedding width.
    pub fn new(system: SystemId, embed_dim: usize, lei_config: LeiConfig) -> Self {
        EventVectorizer {
            drain: Drain::new(DrainConfig::default()),
            lei: LlmInterpreter::new(lei_config),
            embedder: HashedEmbedder::new(embed_dim, 0xE1B),
            system,
            policy: ReviewPolicy::default(),
            table: Vec::new(),
            texts: Vec::new(),
            new_templates: 0,
        }
    }

    /// Warm-starts the parser on historical messages (offline phase), so
    /// online detection starts with the trained template space.
    pub fn warm_start<'a>(&mut self, messages: impl IntoIterator<Item = &'a str>) {
        for m in messages {
            self.ingest(m);
        }
        self.new_templates = 0;
    }

    /// Parses one message, returning its event id; new templates are
    /// interpreted and embedded on the fly.
    pub fn ingest(&mut self, message: &str) -> u32 {
        let event = self.drain.parse_event(message);
        let id = event.0 as usize;
        while self.table.len() <= id {
            let tid = self.table.len();
            let template = self
                .drain
                .template(logsynergy_logparse::EventId(tid as u32))
                .text();
            let (interps, _) = logsynergy_lei::interpret_with_review(
                &self.lei,
                self.system,
                std::slice::from_ref(&template),
                &self.policy,
            );
            let text = interps
                .into_iter()
                .next()
                .map(|i| i.text)
                .unwrap_or_default();
            self.table.push(self.embedder.embed(&text));
            self.texts.push(text);
            self.new_templates += 1;
        }
        // The merge may have changed an existing template's text; embeddings
        // are refreshed lazily only for brand-new ids, which matches the
        // deployed system (interpretations are generated per template once).
        event.0
    }

    /// The embedding table (template id → vector).
    pub fn table(&self) -> &[Vec<f32>] {
        &self.table
    }

    /// Interpretation text for a template id. An id this vectorizer never
    /// issued (possible only if callers mix ids across vectorizers) maps
    /// to a placeholder instead of panicking mid-report.
    pub fn text(&self, id: u32) -> &str {
        self.texts
            .get(id as usize)
            .map(String::as_str)
            .unwrap_or("<unknown event>")
    }

    /// Number of templates interpreted after warm start.
    pub fn new_templates(&self) -> usize {
        self.new_templates
    }

    /// Total templates known.
    pub fn num_templates(&self) -> usize {
        self.table.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_assigns_and_embeds_new_templates() {
        let mut v = EventVectorizer::new(SystemId::SystemB, 16, LeiConfig::default());
        let a = v.ingest("[b-netd] info session established remote lan 10.0.0.1");
        let b = v.ingest("[b-netd] info session established remote lan 10.0.0.2");
        assert_eq!(a, b, "same template after masking");
        assert_eq!(v.num_templates(), 1);
        assert_eq!(v.table()[0].len(), 16);
        let c = v.ingest("[b-iod] error drive dead offline volume 3");
        assert_ne!(a, c);
        assert_eq!(v.num_templates(), 2);
    }

    #[test]
    fn warm_start_resets_new_template_counter() {
        let mut v = EventVectorizer::new(SystemId::SystemB, 8, LeiConfig::default());
        v.warm_start(["alpha beta gamma", "delta epsilon zeta"]);
        assert_eq!(v.new_templates(), 0);
        assert_eq!(v.num_templates(), 2);
        v.ingest("eta theta iota");
        assert_eq!(v.new_templates(), 1);
    }
}
