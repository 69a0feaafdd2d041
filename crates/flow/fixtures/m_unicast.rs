// F2 mutant: the send fan-out is point-to-point instead of broadcast,
// so faulty coordinators can equivocate between receivers. Caught by
// pass F2 (every site becomes a route violation).

impl ByzantineConsensus {
    fn send_all(&mut self, core: Core, cert: Certificate, ctx: &mut Context<'_, Envelope, ValueVector>) {
        ctx.send(self.peer(), Envelope::make(self.me, core, cert, &self.keys));
    }

    fn begin_round(&mut self, ctx: &mut Context<'_, Envelope, ValueVector>) {
        self.entry_cert = std::mem::take(&mut self.next_cert);
        self.r += 1;
        self.sent_next = false;
        if self.me == self.coordinator() {
            self.send_all(
                Core::Current {
                    round: self.r,
                    vector: self.est_vect.clone(),
                },
                self.est_cert.union(&self.entry_cert),
                ctx,
            );
        }
    }

    fn vote_next(&mut self, cert: Certificate, ctx: &mut Context<'_, Envelope, ValueVector>) {
        let core = Core::Next { round: self.r };
        self.sent_next = true;
        self.send_all(core, cert, ctx);
    }

    fn decide(&mut self, round: Round, vector: ValueVector, cert: Certificate, ctx: &mut Context<'_, Envelope, ValueVector>) {
        self.decided = true;
        self.send_all(
            Core::Decide {
                round,
                vector: vector.clone(),
            },
            cert,
            ctx,
        );
        ctx.decide(vector);
    }

    fn handle_admitted(&mut self, from: ProcessId, env: Certified<'_>, ctx: &mut Context<'_, Envelope, ValueVector>) {
        match env.core().clone() {
            Core::Current { round, vector } => {
                self.current_cert.insert(env.signed.clone());
                self.est_vect = vector.clone();
                self.est_cert = env.cert.init_portion();
                if !self.sent_next && self.me != self.coordinator() {
                    self.send_all(
                        Core::Current {
                            round: self.r,
                            vector: self.est_vect.clone(),
                        },
                        self.est_cert.clone(),
                        ctx,
                    );
                }
                let matching = self.matching_current();
                if matching.count(MessageKind::Current, self.r) >= self.quorum() {
                    self.decide(self.r, self.est_vect.clone(), matching, ctx);
                    return;
                }
                self.after_vote(ctx);
            }
            Core::Next { round } => {
                self.next_cert.insert(env.signed.clone());
                self.after_vote(ctx);
            }
            Core::Decide { round, vector } => {
                self.decide(round, vector, env.cert.clone(), ctx);
            }
            _ => {}
        }
    }

    fn after_vote(&mut self, ctx: &mut Context<'_, Envelope, ValueVector>) {
        let currents = self.current_cert.count(MessageKind::Current, self.r);
        let nexts = self.next_cert.count(MessageKind::Next, self.r);
        let rec_from = self.current_cert.union(&self.next_cert).rec_from(self.r).len();
        if change_mind_from_certificates(currents, nexts, self.sent_next, rec_from, self.quorum()) {
            let cert = self.current_cert.union(&self.next_cert);
            self.vote_next(cert, ctx);
        }
        if self.next_cert.count(MessageKind::Next, self.r) >= self.quorum() {
            if !self.sent_next {
                let cert = self.next_cert.union(&self.entry_cert);
                self.vote_next(cert, ctx);
            }
            self.begin_round(ctx);
        }
    }
}

impl Actor for ByzantineConsensus {
    type Msg = Envelope;
    type Decision = ValueVector;

    fn on_start(&mut self, ctx: &mut Context<'_, Envelope, ValueVector>) {
        self.send_all(Core::Init { value: self.value }, Certificate::new(), ctx);
        ctx.set_timer(self.poll_interval, POLL_TIMER);
    }

    fn on_message(&mut self, from: ProcessId, env: &Envelope, ctx: &mut Context<'_, Envelope, ValueVector>) {
        if let Some(env) = self.stack.receive(from, env, ctx) {
            self.handle_admitted(from, env, ctx);
        }
    }

    fn on_timer(&mut self, _tag: TimerTag, ctx: &mut Context<'_, Envelope, ValueVector>) {
        if self.stack.suspected_or_faulty(self.coordinator(), ctx.now()) {
            let cert = self.current_cert.union(&self.next_cert);
            self.vote_next(cert, ctx);
        }
        ctx.set_timer(self.poll_interval, POLL_TIMER);
    }
}
